package experiments

import (
	"context"
	"maps"
	"sync"
	"testing"

	"repro/internal/chip"
)

// TestStageCountsPinned replays a tenant-churn-shaped sequence of builds
// through one memory-only shared cache and checks every step's
// per-stage [runs hits misses disk-hits] against the counts recorded
// when every build loaded every node: a cold build, a repeat, a Theta
// change, an annealed variant, an FDM capacity change, a new seed, and
// two concurrent builds of a new chip (one may wait on the other's
// executions in flight). A memory tier that never evicts must see
// exactly these counts: a node the design does not read is still taken
// through the store whenever the store holds it, as the perfbench
// tenant-churn check requires.
func TestStageCountsPinned(t *testing.T) {
	dc := NewDesignCache()
	a, b := chip.Square(4, 4), chip.Square(3, 3)
	// Counts are [runs hits misses disk-hits]. every gives each stage a
	// fault-free build loads the counts c, or those except names.
	cold, hit := [4]int{1, 0, 1, 0}, [4]int{1, 1, 0, 0}
	every := func(c [4]int, except map[string][4]int) map[string][4]int {
		m := map[string][4]int{}
		for _, name := range []string{StageFabricate, StageFaults, StageCharacterizeXY, StageCharacterizeZZ,
			StagePartition, StageFDMGroup, StageAllocate, StageTDMGates, StageTDM} {
			m[name] = c
		}
		maps.Copy(m, except)
		return m
	}
	steps := []struct {
		name  string
		chip  *chip.Chip
		opts  Options
		twice bool // two concurrent builds
		want  map[string][4]int
	}{
		{"cold", a, Options{Seed: 1}, false, every(cold, nil)},
		{"repeat", a, Options{Seed: 1}, false, every(hit, nil)},
		{"theta", a, Options{Seed: 1, Theta: 2}, false, every(hit, map[string][4]int{StageTDM: cold})},
		{"anneal", a, Options{Seed: 1, AnnealSteps: 10}, false, every(hit, map[string][4]int{StageAnneal: cold})},
		{"fdm-capacity", a, Options{Seed: 1, FDMCapacity: 3}, false, every(hit, map[string][4]int{StageFDMGroup: cold, StageAllocate: cold})},
		{"seed", a, Options{Seed: 2}, false, every(cold, nil)},
		{"concurrent", b, Options{Seed: 1}, true, every([4]int{2, 1, 1, 0}, nil)},
	}
	for _, st := range steps {
		before := dc.Report()
		builds := 1
		if st.twice {
			builds = 2
		}
		var wg sync.WaitGroup
		for range builds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := dc.Designer(st.chip).RedesignCtx(context.Background(), st.opts); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		got := map[string][4]int{}
		for _, row := range dc.Report().Sub(before).Stages {
			if row.Runs > 0 {
				got[row.Name] = [4]int{row.Runs, row.Hits, row.Misses, row.DiskHits}
			}
		}
		if !maps.Equal(got, st.want) {
			t.Errorf("%s: stage counts %v, want %v", st.name, got, st.want)
		}
	}
}
