package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/stage"
)

func chaosKey(i int) stage.Key { return stage.NewKey("chaos-test").Int(i).Done() }

// TestChaosDeterministic: the same (seed, name, key) always draws the
// same fate; a different seed draws a different fate mix.
func TestChaosDeterministic(t *testing.T) {
	a := &Chaos{Seed: 42, FailRate: 0.5}
	b := &Chaos{Seed: 42, FailRate: 0.5}
	for i := 0; i < 64; i++ {
		if a.draw("tdm", chaosKey(i)) != b.draw("tdm", chaosKey(i)) {
			t.Fatalf("draw %d differs across identical specs", i)
		}
	}
	diff := 0
	c := &Chaos{Seed: 43, FailRate: 0.5}
	for i := 0; i < 64; i++ {
		if a.draw("tdm", chaosKey(i)) != c.draw("tdm", chaosKey(i)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed does not perturb the decision stream")
	}
}

// TestChaosRates: over many keys the injected fates land near their
// configured rates, and every fate surfaces correctly through a Store.
func TestChaosRates(t *testing.T) {
	c := &Chaos{Seed: 7, PanicRate: 0.1, FailRate: 0.2, SlowRate: 0.2, Delay: time.Microsecond}
	s := stage.NewStore()
	s.Wrap(c.Wrapper())
	ctx := context.Background()

	const n = 500
	var oks, fails, panics int
	for i := 0; i < n; i++ {
		_, _, err := s.Do(ctx, "stage", chaosKey(i), 1, stage.Codec{}, nil, func(context.Context) (any, error) {
			return i, nil
		})
		var pe *stage.PanicError
		switch {
		case err == nil:
			oks++
		case errors.As(err, &pe):
			panics++
		case errors.Is(err, ErrChaos):
			fails++
		default:
			t.Fatalf("key %d: unexpected error %v", i, err)
		}
	}
	slowN, failN, panicN := c.Counts()
	if int(failN) != fails || int(panicN) != panics {
		t.Fatalf("counts (slow %d fail %d panic %d) disagree with observed (fail %d panic %d)",
			slowN, failN, panicN, fails, panics)
	}
	// Loose 3-sigma-ish envelopes around the configured rates.
	within := func(got int, rate float64) bool {
		want := rate * n
		return float64(got) > want*0.5 && float64(got) < want*1.6
	}
	if !within(panics, 0.1) || !within(fails, 0.2) || !within(int(slowN), 0.2) {
		t.Fatalf("fate mix off: oks=%d fails=%d panics=%d slows=%d of %d", oks, fails, panics, slowN, n)
	}
}

// TestChaosSlowRespectsContext: a slowed stage aborts promptly when the
// request deadline fires instead of sleeping out its delay.
func TestChaosSlowRespectsContext(t *testing.T) {
	c := &Chaos{Seed: 1, SlowRate: 1, Delay: time.Hour}
	s := stage.NewStore()
	s.Wrap(c.Wrapper())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.Do(ctx, "slow", chaosKey(0), 1, stage.Codec{}, nil, func(context.Context) (any, error) {
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slowed stage held the request for %v past its deadline", elapsed)
	}
}

// TestChaosNil: a nil Chaos injects nothing.
func TestChaosNil(t *testing.T) {
	var c *Chaos
	if c.Wrapper() != nil {
		t.Fatal("nil Chaos produced a wrapper")
	}
}
