GO ?= go

.PHONY: build test race vet vet-baseline bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# go vet's standard checks plus the repo's own eleven-analyzer suite
# (wallclock, clockgo, maporder, lockhold, lockorder, pairing,
# bufescape, clockflow, counterkey, outputpurity, hotalloc — see
# DESIGN.md "Concurrency & lifetime invariants").
# Findings recorded in vet-baseline.json are suppressed: CI ratchets
# on NEW findings only; the examples tree is vetted alongside the
# module.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/gflink-vet -baseline vet-baseline.json ./... ./examples/...

# Re-record the suppression baseline. Run only when deliberately
# accepting existing findings; the diff to vet-baseline.json is the
# review surface.
vet-baseline:
	$(GO) run ./cmd/gflink-vet -write-baseline vet-baseline.json ./... ./examples/...

bench:
	$(GO) run ./cmd/gflink-bench -list
