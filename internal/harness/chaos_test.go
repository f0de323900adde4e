package harness

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestSoakClassification drives Soak with synthetic queries covering all
// four outcomes — correct digest, wrong digest, classified rejection,
// unclassified error — and checks the report's bookkeeping and verdict.
func TestSoakClassification(t *testing.T) {
	rejected := errors.New("shed")
	boom := errors.New("boom")
	queries := []ChaosQuery{
		{
			Name:      "good",
			Reference: "42",
			Run:       func(context.Context, int64) (string, error) { return "42", nil },
		},
		{
			Name:      "mismatch",
			Reference: "42",
			Run:       func(context.Context, int64) (string, error) { return "41", nil },
		},
		{
			Name:      "shed",
			Reference: "42",
			Run:       func(context.Context, int64) (string, error) { return "", rejected },
		},
		{
			Name:      "boom",
			Reference: "42",
			Run:       func(context.Context, int64) (string, error) { return "", boom },
		},
	}
	rep, err := Soak(context.Background(), ChaosConfig{
		Seed:       1,
		Workers:    4,
		Iterations: 8,
		Queries:    queries,
		Rejected:   func(err error) bool { return errors.Is(err, rejected) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Succeeded + rep.Rejected + rep.Failed; got != 32 {
		t.Errorf("accounted %d executions, want 32", got)
	}
	if rep.Succeeded == 0 || rep.Rejected == 0 || rep.Failed == 0 {
		t.Errorf("all outcomes should occur over 32 draws: %s", rep)
	}
	if len(rep.Mismatches) == 0 || !strings.Contains(rep.Mismatches[0], "mismatch") {
		t.Errorf("mismatches = %v", rep.Mismatches)
	}
	if len(rep.Errors) == 0 || !errors.Is(rep.Errors[0], boom) {
		t.Errorf("errors = %v", rep.Errors)
	}
	if verdict := rep.Err(); verdict == nil {
		t.Error("report with failures returned a nil verdict")
	}
	if !strings.Contains(rep.String(), "succeeded") {
		t.Errorf("String = %q", rep.String())
	}
}

// TestSoakDeterministicSchedule pins reproducibility: the same seed must
// produce the same per-worker (query, seed) draw sequence.
func TestSoakDeterministicSchedule(t *testing.T) {
	run := func() []string {
		var mu []string
		var lock = make(chan struct{}, 1)
		lock <- struct{}{}
		queries := make([]ChaosQuery, 3)
		for i := range queries {
			name := string(rune('a' + i))
			queries[i] = ChaosQuery{
				Name:      name,
				Reference: "",
				Run: func(_ context.Context, seed int64) (string, error) {
					<-lock
					mu = append(mu, name+":"+strconv.FormatInt(seed, 10))
					lock <- struct{}{}
					return "", nil
				},
			}
		}
		rep, err := Soak(context.Background(), ChaosConfig{Seed: 7, Workers: 1, Iterations: 10, Queries: queries})
		if err != nil || rep.Err() != nil {
			t.Fatalf("soak: %v / %v", err, rep.Err())
		}
		return mu
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("same seed produced different schedules:\n%v\n%v", a, b)
	}
}

func TestSoakVerdicts(t *testing.T) {
	if _, err := Soak(context.Background(), ChaosConfig{}); err == nil {
		t.Error("soak without queries accepted")
	}
	allShed := &ChaosReport{Rejected: 5}
	if err := allShed.Err(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("all-shed verdict = %v", err)
	}
	clean := &ChaosReport{Succeeded: 5}
	if err := clean.Err(); err != nil {
		t.Errorf("clean verdict = %v", err)
	}
	failedOnly := &ChaosReport{Succeeded: 1, Failed: 1}
	if failedOnly.Err() == nil {
		t.Error("failed-count-only report passed")
	}
}

func TestStableGoroutines(t *testing.T) {
	if n := StableGoroutines(); n <= 0 {
		t.Errorf("StableGoroutines = %d", n)
	}
}
