package flink

import (
	"gflink/internal/costmodel"
)

// Join performs an equi-join of two datasets on keys extracted by
// keyA/keyB, producing merge(a, b) for every matching pair. Both sides
// are hash-partitioned across the cluster (a repartition join: each
// side's records travel to the partition owning their key), then each
// partition builds a hash table on the A side and probes it with the B
// side — Flink's REPARTITION_HASH strategy.
//
// perRec is charged per probed record; shuffle serialization and
// network costs are charged for both sides at nominal scale.
func Join[A, B any, K comparable, O any](
	a *Dataset[A], b *Dataset[B], name string,
	perRec costmodel.Work, outBytes int,
	keyA func(A) K, keyB func(B) K,
	merge func(A, B) O,
) *Dataset[O] {
	if a.job != b.job {
		panic("flink: Join across jobs")
	}
	j := a.job
	nparts := len(a.parts)
	if len(b.parts) > nparts {
		nparts = len(b.parts)
	}
	model := j.cluster.Cfg.Model

	// Phase 1: partition both sides by key hash.
	aBox, aNom := partitionByKey(a, name+":A", nparts, keyA)
	bBox, bNom := partitionByKey(b, name+":B", nparts, keyB)

	// Phase 2: network exchange for both sides.
	exchangeSide(j, a, nparts, aNom)
	exchangeSide(j, b, nparts, bNom)

	// Phase 3: build-and-probe per target partition.
	out := make([]Partition[O], nparts)
	j.runTasks("join:"+name, nparts, func(q int) int { return q % j.cluster.Cfg.Workers }, func(q int, tm *TaskManager) {
		var incomingA []A
		var incomingB []B
		var nomA, nomB int64
		for p := 0; p < len(aBox); p++ {
			incomingA = append(incomingA, aBox[p][q]...)
			nomA += aNom[p][q]
		}
		for p := 0; p < len(bBox); p++ {
			incomingB = append(incomingB, bBox[p][q]...)
			nomB += bNom[p][q]
		}
		j.cluster.Clock.Sleep(model.CPU.SerDe(nomA*int64(a.recordBytes) + nomB*int64(b.recordBytes)))
		j.ChargeCompute(nomA+nomB, perRec)
		table := make(map[K][]A)
		for _, v := range incomingA {
			k := keyA(v)
			table[k] = append(table[k], v)
		}
		var items []O
		for _, v := range incomingB {
			for _, av := range table[keyB(v)] {
				items = append(items, merge(av, v))
			}
		}
		realIn := int64(len(incomingA) + len(incomingB))
		out[q] = Partition[O]{Worker: tm.ID, Items: items, Nominal: scaleNominal(nomA+nomB, realIn, int64(len(items)))}
	})
	return FromPartitions(j, outBytes, out)
}

// partitionByKey splits every partition's records by target hash
// bucket, returning the record matrix and per-(src,dst) nominal counts.
func partitionByKey[T any, K comparable](d *Dataset[T], op string, nparts int, key func(T) K) ([][][]T, [][]int64) {
	box := make([][][]T, len(d.parts))
	nom := make([][]int64, len(d.parts))
	model := d.job.cluster.Cfg.Model
	d.job.runTasks("partition:"+op, len(d.parts), d.workerOf, func(p int, tm *TaskManager) {
		in := d.parts[p]
		byTarget := make([][]T, nparts)
		for _, v := range in.Items {
			q := int(hashKey(key(v)) % uint64(nparts))
			byTarget[q] = append(byTarget[q], v)
		}
		box[p] = byTarget
		nom[p] = make([]int64, nparts)
		for q, recs := range byTarget {
			nom[p][q] = scaleNominal(in.Nominal, int64(len(in.Items)), int64(len(recs)))
		}
		d.job.cluster.Clock.Sleep(model.CPU.SerDe(in.Nominal * int64(d.recordBytes)))
	})
	return box, nom
}

// exchangeSide runs the network transfers of one hash-partitioned
// dataset: nom[p][q] nominal records from partition p to target q,
// which lives on worker q % Workers.
func exchangeSide[T any](j *Job, d *Dataset[T], nparts int, nom [][]int64) {
	from := make([]int, len(d.parts))
	to := make([]int, nparts)
	bytes := make([][]int64, len(d.parts))
	for p := range d.parts {
		from[p] = d.parts[p].Worker
		bytes[p] = make([]int64, nparts)
		for q := 0; q < nparts; q++ {
			to[q] = q % j.cluster.Cfg.Workers
			bytes[p][q] = nom[p][q] * int64(d.recordBytes)
		}
	}
	shuffleExchange(j, from, to, bytes)
}

// KeyCount is one result record of CountByKey.
type KeyCount[K comparable] struct {
	Key   K
	Count int64
}

// CountByKey returns the number of records per key, gathered at the
// driver (a convenience built on ReduceByKey). Results come back in
// canonical key order — returning a map here would push a
// nondeterministic iteration onto every caller.
func CountByKey[T any, K comparable](d *Dataset[T], name string, key func(T) K) []KeyCount[K] {
	type kc struct {
		K K
		N int64
	}
	pairs := Map(d, name+":pair", costmodel.Work{}, d.recordBytes+8, func(v T) kc { return kc{K: key(v), N: 1} })
	reduced := ReduceByKey(pairs, name+":count", costmodel.Work{Flops: 1},
		func(p kc) K { return p.K },
		func(x, y kc) kc { return kc{K: x.K, N: x.N + y.N} })
	collected := Collect(reduced)
	keys := make([]K, len(collected))
	byKey := make(map[K]int64, len(collected))
	for i, p := range collected {
		keys[i] = p.K
		byKey[p.K] += p.N
	}
	sortKeys(keys)
	out := make([]KeyCount[K], 0, len(keys))
	for i, k := range keys {
		if i > 0 && keys[i-1] == k {
			continue // duplicate key (counts already merged above)
		}
		out = append(out, KeyCount[K]{Key: k, Count: byKey[k]})
	}
	return out
}
