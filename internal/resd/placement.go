package resd

// stackShards is how many shards an order call serves from the stack
// (Admit's result buffer, order's keys); services with more pay one
// allocation per request for each.
const stackShards = 16

// order appends to out, which the caller passes empty — backed by a
// [stackShards]int on its own stack to keep the call allocation-free — the
// shards a Reserve request should try, least loaded first, ties to the
// lower index. The service walks the list, passing over a shard another
// caller holds, until a shard admits (see Service.Admit). It reads
// only shard.load, never the shard owner's state, so routing is lock-free
// and may be (harmlessly) stale: the routed shard re-validates when it
// serves the request.
func order(shards []*shard, out []int) []int {
	var buf [stackShards]int64
	keys := buf[:0]
	for _, sh := range shards {
		keys = append(keys, sh.load())
	}
	return rank(keys, out)
}

// rank appends to out (passed empty) the shard indices ordered by key,
// ties keeping the lower index: a stable insertion sort straight into
// the result, which for the handful of shards a service has beats
// sort.SliceStable's reflection swapper and allocates nothing.
func rank(keys []int64, out []int) []int {
	for i := range keys {
		out = append(out, i)
		j := i
		for ; j > 0 && keys[i] < keys[out[j-1]]; j-- {
			out[j] = out[j-1]
		}
		out[j] = i
	}
	return out
}
