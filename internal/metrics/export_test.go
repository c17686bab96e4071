package metrics

// LiveShards reports how many shards r tracks: handed out by Shard and
// not yet released.
func LiveShards(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}
