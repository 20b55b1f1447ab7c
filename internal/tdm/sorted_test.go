package tdm

// GroupSorted is GroupSortedNoise building its own noise tables.
func GroupSorted(gi *GateInfo, sorted, isolated []int, cfg Config) (*Grouping, error) {
	return GroupSortedNoise(gi, sorted, isolated, nil, cfg)
}
