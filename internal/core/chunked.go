package core

import (
	"fmt"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// This file implements chunked double-buffered GWork pipelining: when
// the stream manager has chunking enabled, a GWork's three stages are
// split into C cost-model-chosen chunks spread over two CUDA streams of
// the same worker, so the H2D transfer of chunk i+1 overlaps the kernel
// of chunk i (and, with two copy engines, D2H overlaps both). Chunk
// ordering is enforced by each chunk waiting on the previous chunk's
// kernel completion event.
//
// Correctness rule: all *real* data movement stays whole. Chunk 0's
// H2D ops carry the full real copy (and the full projected ranges) and
// run the kernel function for real over the complete buffers; the last
// chunk's D2H carries the completed result back. Every other chunk op
// is a pure timing shadow charging its nominal share. Enabling chunking
// therefore never changes a workload's output, only its simulated
// timings (DESIGN.md invariant 9).

// chunkCount resolves the chunk count for w on this worker: 1 unless
// chunking is enabled and either the work forces a count (Chunks > 1)
// or the cost model favours splitting, weighing the work's declared
// KernelWork against the H2D volume this execution would actually ship
// (cache-resident inputs cost nothing).
func (sw *streamWorker) chunkCount(w *GWork) int {
	if !sw.mgr.chunking || sw.alt == nil {
		return 1
	}
	if w.Chunks == 1 {
		return 1
	}
	if w.Chunks > 1 {
		return w.Chunks
	}
	if (w.KernelWork == costmodel.Work{}) {
		return 1
	}
	var h2d int64
	for _, in := range w.In {
		if in.Cache && sw.ds.mem.CachedBytes([]CacheKey{in.Key}) > 0 {
			continue
		}
		h2d += in.Nominal
	}
	coalesce := w.Coalesce
	if coalesce <= 0 {
		coalesce = 1
	}
	return sw.mgr.wrapper.model.ChunkCount(sw.ds.dev.Profile, w.KernelWork, coalesce, h2d, w.OutNominal)
}

// nominalShare splits n into chunks equal parts with the remainder on
// chunk 0, so the charged total is exactly n.
func nominalShare(n int64, chunks, k int) int64 {
	base := n / int64(chunks)
	if k == 0 {
		return n - int64(chunks-1)*base
	}
	return base
}

// execChunked runs one GWork through the chunked double-buffered
// pipeline. Setup (admission, cache lookups, allocation, pinning) and
// teardown (cache insertion, frees) are identical to the monolithic
// path; only the transfer/kernel middle differs.
//
//gflink:gated chunking -- reachable only when chunked pipelining is enabled; outputpurity holds it to shadow/boundary copies
func (sw *streamWorker) execChunked(w *GWork, chunks int) {
	mgr := sw.mgr
	dev := sw.ds.dev
	mem := sw.ds.mem
	wr := mgr.wrapper
	pcie := wr.model.PCIe

	footprint := w.OutNominal
	for _, in := range w.In {
		footprint += in.Nominal
	}
	if footprint > sw.ds.budgetCap {
		footprint = sw.ds.budgetCap
	}
	if footprint > 0 {
		sw.ds.budget.Acquire(footprint)
		defer sw.ds.budget.Release(footprint)
	}

	var (
		devBufs  = make([]*gpu.Buffer, len(w.In))
		acquired []CacheKey
		toCache  []int
		toFree   []*gpu.Buffer
		dmas     []int // indices of w.In that need a transfer

		tStart                 time.Duration
		cacheHits, cacheMisses int
	)
	malloc := func(nominal int64, real int) (*gpu.Buffer, error) {
		b, err := wr.Malloc(dev, nominal, real)
		if err != nil {
			mem.Reclaim(nominal)
			b, err = wr.Malloc(dev, nominal, real)
		}
		return b, err
	}
	fail := func(err error) {
		for _, k := range acquired {
			mem.Release(k)
		}
		for _, b := range toFree {
			wr.Free(dev, b)
		}
		w.err = err
		w.device = dev
		w.report = obs.WorkReport{
			DeviceID: dev.ID, Worker: dev.Node,
			QueueWait:   tStart - w.submitT,
			CacheHits:   cacheHits,
			CacheMisses: cacheMisses,
			StolenFrom:  w.stolenFrom,
		}
		// Mirror the monolithic fail path: a failed work still queued
		// and still occupied the stream, so the trace records the queue
		// wait and a failed gwork span instead of a hole.
		mgr.tracer.Record(sw.ds.queueTrack, "queue", "queue:"+w.ExecuteName,
			w.submitT, tStart, obs.Int("device", int64(dev.ID)))
		mgr.tracer.Record(sw.track, "gwork", w.ExecuteName,
			tStart, mgr.clock.Now(),
			obs.Int("device", int64(dev.ID)),
			obs.Int("job", int64(w.JobID)),
			obs.Str("error", err.Error()))
		w.done.Set()
	}

	tStart = mgr.clock.Now()
	// Setup: serve cache hits and allocate device buffers up front;
	// transfers are enqueued chunk by chunk below.
	for i, in := range w.In {
		if in.Cache {
			if buf, ok := mem.Acquire(in.Key); ok {
				devBufs[i] = buf
				acquired = append(acquired, in.Key)
				cacheHits++
				continue
			}
			cacheMisses++
		}
		buf, err := malloc(in.Nominal, len(in.Buf.Bytes()))
		if err != nil {
			fail(fmt.Errorf("allocating input %d of %q: %w", i, w.ExecuteName, err))
			return
		}
		devBufs[i] = buf
		if in.Cache {
			toCache = append(toCache, i)
		} else {
			toFree = append(toFree, buf)
		}
		wr.HostRegister(in.Buf)
		dmas = append(dmas, i)
	}
	outBuf, err := malloc(w.OutNominal, len(w.Out.Bytes()))
	if err != nil {
		fail(fmt.Errorf("allocating output of %q: %w", w.ExecuteName, err))
		return
	}
	toFree = append(toFree, outBuf)
	wr.HostRegister(w.Out)

	ctx := &gpu.KernelCtx{
		In:        devBufs,
		Out:       []*gpu.Buffer{outBuf},
		N:         w.Size,
		Nominal:   w.Nominal,
		GridSize:  w.GridSize,
		BlockSize: w.BlockSize,
		Args:      w.Args,
	}
	if w.Coalesce > 0 {
		ctx.SetCoalesce(w.Coalesce)
	}

	lanes := [2]*gpu.Stream{sw.stream, sw.alt}
	tracks := [2]string{sw.track + "/dbuf0", sw.track + "/dbuf1"}
	// shadow is a non-nil empty range list: a copy op that charges its
	// nominal share but moves no real bytes.
	shadow := []gpu.CopyRange{}

	var (
		// Pipeline milestones, written inside stream ops and read after
		// the final synchronize (safe: the cooperative virtual-clock
		// scheduler orders the writes before the reads).
		tPipe0, tK0, tKend time.Duration
		// serialized sums every DMA and kernel busy charge; the overlap
		// summary is serialized minus the busy window's wall time.
		serialized time.Duration
		futs       = make([]*gpu.Future, chunks)
	)
	lanes[0].Callback(func() { tPipe0 = mgr.clock.Now() })
	for k := 0; k < chunks; k++ {
		kk := k
		s := lanes[k%2]
		track := tracks[k%2]

		// H2D shares of every transferred input; chunk 0 carries the
		// real (possibly projected) copy.
		for _, i := range dmas {
			in := w.In[i]
			share := nominalShare(in.Nominal, chunks, k)
			if share <= 0 && k > 0 {
				continue
			}
			ranges := shadow
			if k == 0 {
				ranges = in.Ranges // nil = full copy
			}
			wr.MemcpyH2DRangesAsync(s, devBufs[i], in.Buf, ranges, share)
			dur := pcie.TransferTime(share)
			serialized += dur
			sw.ds.cntH2D.Add(share)
			s.Callback(func() {
				end := mgr.clock.Now()
				mgr.tracer.Record(track, "chunk", fmt.Sprintf("h2d.c%d", kk), end-dur, end,
					obs.Int("job", int64(w.JobID)))
			})
		}

		if k == 0 {
			s.Callback(func() { tK0 = mgr.clock.Now() })
		}
		var after *vclock.Event
		if k > 0 {
			after = futs[k-1].Done()
		}
		futs[k] = wr.LaunchChunkAsync(s, w.ExecuteName, ctx, k, chunks, after)
		fut := futs[k]
		s.Callback(func() {
			end := mgr.clock.Now()
			d, _ := fut.Wait() // already resolved: same stream, FIFO
			mgr.tracer.Record(track, "chunk", fmt.Sprintf("kernel.c%d", kk), end-d, end,
				obs.Int("job", int64(w.JobID)))
		})
		if k == chunks-1 {
			s.Callback(func() { tKend = mgr.clock.Now() })
		}

		// D2H share; the last chunk carries the completed result back.
		dshare := nominalShare(w.OutNominal, chunks, k)
		if dshare <= 0 && k != chunks-1 {
			continue
		}
		dranges := shadow
		if k == chunks-1 {
			dranges = nil
		}
		wr.MemcpyD2HRangesAsync(s, w.Out, outBuf, dranges, dshare)
		ddur := pcie.TransferTime(dshare)
		serialized += ddur
		sw.ds.cntD2H.Add(dshare)
		s.Callback(func() {
			end := mgr.clock.Now()
			mgr.tracer.Record(track, "chunk", fmt.Sprintf("d2h.c%d", kk), end-ddur, end,
				obs.Int("job", int64(w.JobID)))
		})
	}

	wr.StreamSynchronize(sw.stream)
	wr.StreamSynchronize(sw.alt)
	var kerr error
	for _, f := range futs {
		d, err := f.Wait()
		serialized += d
		if kerr == nil && err != nil {
			kerr = err
		}
	}

	for _, i := range toCache {
		in := w.In[i]
		if mem.Insert(in.Key, devBufs[i], in.Nominal) {
			acquired = append(acquired, in.Key)
		} else {
			toFree = append(toFree, devBufs[i])
		}
	}
	for _, k := range acquired {
		mem.Release(k)
	}
	for _, b := range toFree {
		wr.Free(dev, b)
	}

	tEnd := mgr.clock.Now()
	overlap := serialized - (tEnd - tPipe0)
	if overlap < 0 {
		overlap = 0
	}
	// Stage attribution tiles the wall span exactly: H2D runs to the
	// first chunk's kernel start, kernel to the last chunk's kernel end,
	// D2H covers the rest — so Queue + H2D + Kernel + D2H still equals
	// the full submit-to-done interval.
	w.report = obs.WorkReport{
		DeviceID: dev.ID, Worker: dev.Node,
		QueueWait:   tStart - w.submitT,
		H2D:         tK0 - tStart,
		Kernel:      tKend - tK0,
		D2H:         tEnd - tKend,
		CacheHits:   cacheHits,
		CacheMisses: cacheMisses,
		StolenFrom:  w.stolenFrom,
		Chunks:      chunks,
		Overlap:     overlap,
	}
	w.err = kerr
	w.device = dev
	mgr.tracer.RecordGWork(sw.track, sw.ds.queueTrack, w.ExecuteName,
		w.submitT, tStart, w.report, obs.Int("job", int64(w.JobID)))
	w.done.Set()
}
