package main

import (
	"context"
	"math/rand"
	"testing"

	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/plan"
)

func bootScale1(t *testing.T) *sut {
	t.Helper()
	cfg := rigConfig()
	cfg.Scale = 1
	rig, err := harness.NewRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return &sut{rig: rig, ref: newReference(rig.Data)}
}

func (s *sut) mustMatch(t *testing.T, c check) {
	t.Helper()
	a, err := s.query(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.verify(a.rows); err != nil {
		t.Error(err)
	}
}

// TestReferenceMatchesSystem runs every checked statement on a scale-1 rig.
func TestReferenceMatchesSystem(t *testing.T) {
	s := bootScale1(t)
	for _, c := range s.ref.stream {
		if len(c.want) == 0 {
			t.Errorf("%s: empty reference answer checks nothing", c.name)
		}
		s.mustMatch(t, c)
	}
	if len(s.ref.itemKeys) != 50 {
		t.Fatalf("%d items at scale 1, want 50", len(s.ref.itemKeys))
	}
	for _, k := range s.ref.itemKeys {
		s.mustMatch(t, s.ref.lookups[k])
	}
	s.mustMatch(t, s.ref.invariant)
}

// TestRewritesKeepTheInvariant checks the premise of scan-under-write: the
// writer rewrites generated rows with their own values, so the reader's
// answer does not move.
func TestRewritesKeepTheInvariant(t *testing.T) {
	s := bootScale1(t)
	send, err := s.rewriter(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := send(i); err != nil {
			t.Fatal(err)
		}
	}
	s.mustMatch(t, s.ref.invariant)
}

func TestVerifyRejectsWrongAnswers(t *testing.T) {
	c := check{name: "q", want: []plan.Row{{int64(3), 1.5}, {int64(4), "x"}}}
	good := []plan.Row{{int32(4), "x"}, {int64(3), 1.5 + 1e-12}}
	if err := c.verify(good); err != nil {
		t.Errorf("unordered match rejected: %v", err)
	}
	for _, bad := range [][]plan.Row{
		{{int64(3), 1.5}},
		{{int64(3), 1.6}, {int64(4), "x"}},
		{{int64(3), 1.5}, {int64(5), "x"}},
		{{int64(3), nil}, {int64(4), "x"}},
	} {
		if err := c.verify(bad); err == nil {
			t.Errorf("wrong answer %v accepted", bad)
		}
	}
	c.ordered = true
	if err := c.verify(good); err == nil {
		t.Error("out-of-order rows accepted for an ordered statement")
	}
}
