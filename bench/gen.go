package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Stream item kinds. An admission is followed by the cancel the
// workload's CancelLag calls for, so the live count stays where preload
// left it.
const (
	kindAdmit uint8 = iota
	kindQuery
	kindStats  // Service.Stats
	kindTotals // Service.TenantTotals
)

// item is one generated request. The streams are flat slices built from
// -seed before any clock starts; the timed loops only index into them.
type item struct {
	ready  int64
	dur    int32
	q      int16
	kind   uint8
	tenant uint8
}

// streams is everything a run feeds the program: the program sees only
// these generated inputs.
type streams struct {
	preload   []item           // admissions that build the booked state, applied in order
	pool      [][]item         // one cyclic request pool per caller
	serial    []item           // admissions the traced run's serial section replays
	instances []*core.Instance // lsrc-batch
	hash      uint64           // FNV-1a over every generated value
}

func generate(w *spec, seed uint64) (*streams, error) {
	s := &streams{}
	if !w.service() {
		r := rng.NewStream(seed, 1)
		for i := 0; i < w.Instances; i++ {
			inst, err := workload.SyntheticInstance(r.Split(), workload.SynthConfig{
				M: w.LSRCM, N: w.Jobs, MaxWidthFrac: w.MaxWidthFrac,
			})
			if err != nil {
				return nil, fmt.Errorf("generate instance %d: %w", i, err)
			}
			inst.Res = workload.ReservationStream(r.Split(), w.LSRCM, w.ResAlpha, w.NRes, core.Time(w.ResHorizon))
			s.instances = append(s.instances, inst)
		}
		s.hash = hashInstances(s.instances)
		return s, nil
	}
	horizon := int64(1) << w.HorizonBits
	// draw makes one request from r; timed requests also draw the kind
	// and the wide share, preload ones are plain admissions.
	draw := func(r *rng.PCG, tenant func() uint8, timed bool) item {
		it := item{
			ready:  r.Int63n(horizon),
			dur:    int32(r.IntRange(w.DurLo, w.DurHi)),
			q:      int16(r.IntRange(1, w.WidthHi)),
			tenant: tenant(),
		}
		if !timed {
			return it
		}
		if w.WideShare > 0 && r.Bool(w.WideShare) {
			it.q = int16(r.IntRange(w.WideLo, w.WideHi))
		}
		switch u := r.Float64(); {
		case u < w.QueryShare:
			it.kind = kindQuery
		case u < w.QueryShare+w.StatsShare/2:
			it.kind = kindStats
		case u < w.QueryShare+w.StatsShare:
			it.kind = kindTotals
		}
		return it
	}
	// fill draws a slice from its own generator stream, so no slice's
	// content depends on another's length.
	fill := func(stream uint64, n int, timed bool) []item {
		r := rng.NewStream(seed, stream)
		tenant := func() uint8 { return 0 }
		if w.Tenants > 0 {
			z := rng.NewZipf(r, w.Tenants, w.Zipf)
			tenant = func() uint8 { return uint8(z.Next()) }
		}
		items := make([]item, n)
		for i := range items {
			items[i] = draw(r, tenant, timed)
		}
		return items
	}
	s.preload = fill(1, w.Live, false)
	s.serial = fill(2, w.Serial, true)
	for i := range s.serial {
		s.serial[i].kind = kindAdmit
	}
	s.pool = make([][]item, callers)
	for g := range s.pool {
		s.pool[g] = fill(uint64(100+g), poolPerCaller, true)
	}
	s.hash = hashItems(append(append([][]item{s.preload}, s.pool...), s.serial))
	return s, nil
}

func hashItems(groups [][]item) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, g := range groups {
		for _, it := range g {
			binary.LittleEndian.PutUint64(b[0:], uint64(it.ready))
			binary.LittleEndian.PutUint32(b[8:], uint32(it.dur))
			binary.LittleEndian.PutUint16(b[12:], uint16(it.q))
			b[14], b[15] = it.kind, it.tenant
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func hashInstances(insts []*core.Instance) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, in := range insts {
		for _, j := range in.Jobs {
			binary.LittleEndian.PutUint64(b[0:], uint64(j.Len))
			binary.LittleEndian.PutUint64(b[8:], uint64(j.Procs))
			h.Write(b[:])
		}
		for _, rv := range in.Res {
			binary.LittleEndian.PutUint64(b[0:], uint64(rv.Start))
			binary.LittleEndian.PutUint32(b[8:], uint32(rv.Len))
			binary.LittleEndian.PutUint32(b[12:], uint32(rv.Procs))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
