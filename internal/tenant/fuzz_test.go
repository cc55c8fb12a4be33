package tenant

import (
	"errors"
	"testing"
)

// FuzzQuotaAccounting replays an arbitrary serial Acquire/Release/SetShare
// stream through a Registry and cross-checks every decision against a
// plain map-based oracle applying the budget rule (used + area ≤ share ×
// capacity) by hand. Any divergence — an admit the oracle rejects, a
// rejection it admits, usage drifting from the oracle's ledger — means the
// CAS accounting or the budget resolution broke. The final drain must
// return every account to zero.
func FuzzQuotaAccounting(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 1, 10, 1, 0, 0, 0, 2, 200})
	f.Add([]byte{0, 2, 255, 0, 2, 255, 2, 2, 9, 0, 1, 1})
	f.Add([]byte{3, 0, 128, 0, 0, 100, 3, 0, 16, 0, 0, 100})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 1 << 10
		tenants := []string{"a", "b", "c"}
		shares := []float64{0.5, 0.25, 0.125}
		var spec Spec
		for i, name := range tenants {
			spec.Tenants = append(spec.Tenants, TenantSpec{Name: name, Share: shares[i]})
		}
		r, err := New(capacity, spec)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle ledger: resolved budget and used, per tenant.
		budget := map[string]int64{}
		used := map[string]int64{}
		for i, name := range tenants {
			budget[name] = int64(shares[i] * capacity)
		}
		type grant struct {
			tenant string
			area   int64
		}
		var held []grant

		for len(ops) >= 3 {
			op, a, b := ops[0]%3, ops[1], ops[2]
			ops = ops[3:]
			name := tenants[int(a)%len(tenants)]
			switch op {
			case 0: // acquire
				area := int64(b) + 1
				wantOK := used[name]+area <= budget[name]
				err := r.Acquire(name, area)
				if (err == nil) != wantOK {
					t.Fatalf("Acquire(%s, %d) err=%v, oracle ok=%v (used=%d budget=%d)",
						name, area, err, wantOK, used[name], budget[name])
				}
				if err != nil {
					if !errors.Is(err, ErrQuota) {
						t.Fatalf("Acquire error is not ErrQuota: %v", err)
					}
					continue
				}
				r.Admit(name)
				used[name] += area
				held = append(held, grant{name, area})
			case 1: // release one held grant
				if len(held) == 0 {
					continue
				}
				k := int(a) % len(held)
				gr := held[k]
				held = append(held[:k], held[k+1:]...)
				r.Release(gr.tenant, gr.area)
				used[gr.tenant] -= gr.area
			case 2: // shrink/grow a share and re-resolve the oracle budget
				share := (float64(b%100) + 1) / 100
				if err := r.SetShare(name, share); err != nil {
					t.Fatalf("SetShare(%s, %v): %v", name, share, err)
				}
				budget[name] = int64(share * capacity)
			}
			for _, tn := range tenants {
				if u := r.Usage(tn); u.Used != used[tn] || u.Budget != budget[tn] {
					t.Fatalf("tenant %s used/budget = %d/%d, oracle %d/%d", tn, u.Used, u.Budget, used[tn], budget[tn])
				}
			}
		}
		for _, gr := range held {
			r.Release(gr.tenant, gr.area)
		}
		for _, tn := range tenants {
			if u := r.Usage(tn); u.Used != 0 || u.Inflight != 0 {
				t.Fatalf("tenant %s not drained: %+v", tn, u)
			}
		}
	})
}
