package sat

import "testing"

func TestHookSampleTotalsMatchStats(t *testing.T) {
	s := New()
	addPigeonhole(s, 7)
	var got Stats
	var samples int
	var lbdObs int
	s.SetHook(&Hook{
		Every:       64,
		LearntEvery: 4,
		OnSample: func(d Stats, learntDB int) {
			samples++
			got.Decisions += d.Decisions
			got.Propagations += d.Propagations
			got.Conflicts += d.Conflicts
			got.Restarts += d.Restarts
			got.Learnt += d.Learnt
			got.Removed += d.Removed
			if learntDB < 0 {
				t.Errorf("negative learnt DB size %d", learntDB)
			}
		},
		OnLearnt: func(lbd int32, size int) {
			lbdObs++
			if lbd < 1 || size < 1 {
				t.Errorf("implausible learnt sample: lbd=%d size=%d", lbd, size)
			}
		},
	})
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP = %v, want UNSAT", st)
	}
	// The end-of-Solve flush makes the sampled deltas sum to the exact
	// totals — this is what lets published counters converge.
	if got != s.Stats {
		t.Fatalf("summed hook deltas = %+v, want %+v", got, s.Stats)
	}
	if samples < 2 {
		t.Fatalf("want multiple samples, got %d (conflicts=%d)", samples, s.Stats.Conflicts)
	}
	if lbdObs == 0 {
		t.Fatal("want sampled learnt-clause observations")
	}
}

func TestHookTotalsAcrossIncrementalSolves(t *testing.T) {
	s := New()
	addPigeonhole(s, 6)
	var got Stats
	s.SetHook(&Hook{OnSample: func(d Stats, _ int) {
		got.Conflicts += d.Conflicts
		got.Decisions += d.Decisions
	}})
	// Solve twice (second call returns instantly from the cached UNSAT
	// state); totals must still line up at every boundary.
	s.Solve()
	s.Solve()
	if got.Conflicts != s.Stats.Conflicts || got.Decisions != s.Stats.Decisions {
		t.Fatalf("hook totals %+v diverge from Stats %+v", got, s.Stats)
	}
}

// TestHookLearntSamplingAccounting pins the OnLearnt sampling contract:
// with LearntEvery=1 every learnt clause is observed, so the sample count
// equals Stats.Learnt plus the unit-clause conflicts (which learn a
// single literal rather than a stored clause), and every sampled LBD is
// bounded by its clause size. With a sparser interval the count shrinks
// to the sampled fraction, never exceeding the dense count.
func TestHookLearntSamplingAccounting(t *testing.T) {
	run := func(every uint64) (obs int, sumSize int, st Stats) {
		s := New()
		addPigeonhole(s, 7)
		s.SetHook(&Hook{
			LearntEvery: every,
			OnLearnt: func(lbd int32, size int) {
				obs++
				sumSize += size
				if lbd < 1 || size < 1 {
					t.Errorf("implausible learnt sample: lbd=%d size=%d", lbd, size)
				}
				if int(lbd) > size {
					t.Errorf("lbd %d exceeds clause size %d", lbd, size)
				}
			},
		})
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP = %v, want UNSAT", got)
		}
		return obs, sumSize, s.Stats
	}

	dense, denseSize, st := run(1)
	// Every conflict is sampled at interval 1, except the terminal level-0
	// conflict that proves UNSAT before anything is learnt; Stats.Learnt
	// counts only stored (≥2-literal) clauses, so dense ≥ learnt.
	if uint64(dense) != st.Conflicts-1 {
		t.Fatalf("dense OnLearnt observations = %d, want every learning conflict (%d)", dense, st.Conflicts-1)
	}
	if uint64(dense) < st.Learnt {
		t.Fatalf("dense observations %d < Stats.Learnt %d", dense, st.Learnt)
	}
	if denseSize < dense {
		t.Fatalf("summed sizes %d < observations %d (sizes are ≥1)", denseSize, dense)
	}
	sparse, _, _ := run(64)
	if sparse == 0 || sparse >= dense {
		t.Fatalf("sparse sampling (every=64) observed %d, want in (0, %d)", sparse, dense)
	}
}

// TestHookDoesNotPerturbSearch is the bit-identical guarantee behind the
// metrics layer: the hook observes, never steers.
func TestHookDoesNotPerturbSearch(t *testing.T) {
	run := func(withHook bool) Stats {
		s := New()
		addPigeonhole(s, 7)
		if withHook {
			s.SetHook(&Hook{
				Every:       32,
				LearntEvery: 8,
				OnSample:    func(Stats, int) {},
				OnLearnt:    func(int32, int) {},
			})
		}
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP = %v, want UNSAT", st)
		}
		return s.Stats
	}
	if plain, hooked := run(false), run(true); plain != hooked {
		t.Fatalf("hook perturbed the search: %+v vs %+v", plain, hooked)
	}
}

func TestSetHookNilRemoves(t *testing.T) {
	s := New()
	addPigeonhole(s, 5)
	fired := false
	s.SetHook(&Hook{OnSample: func(Stats, int) { fired = true }})
	s.SetHook(nil)
	s.Solve()
	if fired {
		t.Fatal("removed hook must not fire")
	}
}
