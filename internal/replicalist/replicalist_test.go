package replicalist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestTruncatePolicies(t *testing.T) {
	base := []int{10, 11, 12, 13, 14}
	t.Run("drop-tail keeps head", func(t *testing.T) {
		got := TruncatedCopy(base, 2, DropTail, nil)
		if !reflect.DeepEqual(got, []int{10, 11}) {
			t.Fatalf("kept %v", got)
		}
	})
	t.Run("drop-head keeps tail", func(t *testing.T) {
		got := TruncatedCopy(base, 2, DropHead, nil)
		if !reflect.DeepEqual(got, []int{13, 14}) {
			t.Fatalf("kept %v", got)
		}
	})
	t.Run("drop-random keeps count", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		got := TruncatedCopy(base, 3, DropRandom, rng)
		if len(got) != 3 {
			t.Fatalf("kept %v", got)
		}
		seen := map[int]bool{}
		for _, id := range got {
			if id < 10 || id > 14 || seen[id] {
				t.Fatalf("kept %v: not a subset of %v", got, base)
			}
			seen[id] = true
		}
	})
	t.Run("drop-random nil rng falls back", func(t *testing.T) {
		got := TruncatedCopy(base, 2, DropRandom, nil)
		if !reflect.DeepEqual(got, []int{10, 11}) {
			t.Fatalf("kept %v, want the drop-tail fallback", got)
		}
	})
	t.Run("no-op when short", func(t *testing.T) {
		if got := TruncatedCopy(base, 10, DropTail, nil); !reflect.DeepEqual(got, base) {
			t.Fatalf("kept %v", got)
		}
	})
	t.Run("unknown policy no-op", func(t *testing.T) {
		if got := TruncatedCopy(base, 1, TruncatePolicy(99), nil); !reflect.DeepEqual(got, base) {
			t.Fatalf("kept %v", got)
		}
	})
	if !reflect.DeepEqual(base, []int{10, 11, 12, 13, 14}) {
		t.Fatalf("input modified: %v", base)
	}
}

// TestTruncateConsistencyProperty checks every policy on random lists: the
// copy respects maxLen, keeps only input entries without repeating any, and
// never aliases or modifies the input.
func TestTruncateConsistencyProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: quickValues(func(args []interface{}, r *rand.Rand) {
			// Flooding lists are duplicate-free: draw a random subset of
			// 0..39 in random order.
			ids := r.Perm(40)[:r.Intn(30)]
			args[0] = ids
			args[1] = r.Intn(30)
			args[2] = int(DropTail) + r.Intn(3)
			args[3] = r.Int63()
		}),
	}
	prop := func(ids []int, maxLen, policy int, seed int64) bool {
		in := append([]int(nil), ids...)
		rng := rand.New(rand.NewSource(seed))
		got := TruncatedCopy(ids, maxLen, TruncatePolicy(policy), rng)
		if len(got) != min(len(ids), maxLen) {
			return false
		}
		member := map[int]bool{}
		for _, id := range ids {
			member[id] = true
		}
		for _, id := range got {
			if !member[id] {
				return false
			}
			delete(member, id) // a second occurrence fails the check above
		}
		if len(got) > 0 {
			got[0] = -1 // must not write through to the input
		}
		return slices.Equal(ids, in)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("truncate inconsistency: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[TruncatePolicy]string{
		DropTail: "drop-tail", DropHead: "drop-head", DropRandom: "drop-random",
	} {
		if got := p.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	if got := TruncatePolicy(42).String(); got != "TruncatePolicy(42)" {
		t.Fatalf("unknown String = %q", got)
	}
}

func TestAddContains(t *testing.T) {
	s := NewSet[int](4)
	if s.Len() != 0 {
		t.Fatalf("new set Len = %d", s.Len())
	}
	if !s.Add(7) {
		t.Fatal("first Add returned false")
	}
	if s.Add(7) {
		t.Fatal("duplicate Add returned true")
	}
	if !s.Contains(7) || s.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestFromSliceDedup(t *testing.T) {
	s := NewSet[int](0)
	if n := s.AddAll([]int{3, 1, 3, 2, 1}); n != 3 {
		t.Fatalf("AddAll inserted %d, want 3", n)
	}
	if got, want := s.Slice(), []int{3, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("Slice = %v, want %v (first-seen order preserved)", got, want)
	}
}

func TestUnionPreservesBoth(t *testing.T) {
	a, b := NewSet[int](0), NewSet[int](0)
	a.AddAll([]int{1, 2, 3})
	b.AddAll([]int{3, 4})
	u := NewSet[int](0)
	u.AddAll(a.View())
	u.AddAll(b.View())
	if u.Len() != 4 {
		t.Fatalf("union Len = %d, want 4", u.Len())
	}
	for _, id := range []int{1, 2, 3, 4} {
		if !u.Contains(id) {
			t.Fatalf("union missing %d", id)
		}
	}
	// Inputs untouched.
	if !slices.Equal(a.Slice(), []int{1, 2, 3}) || !slices.Equal(b.Slice(), []int{3, 4}) {
		t.Fatal("union modified an input")
	}
}

// TestUnionPropertyIsSetUnion checks that AddAll of two random lists is
// their set union in first-seen order and counts only the new entries — how
// the engine merges a received flooding list into its own.
func TestUnionPropertyIsSetUnion(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: quickValues(func(args []interface{}, r *rand.Rand) {
			mk := func() []int {
				n := r.Intn(20)
				out := make([]int, n)
				for i := range out {
					out[i] = r.Intn(15)
				}
				return out
			}
			args[0] = mk()
			args[1] = mk()
		}),
	}
	prop := func(xs, ys []int) bool {
		u := NewSet[int](0)
		n := u.AddAll(xs) + u.AddAll(ys)
		var want []int
		for _, id := range append(append([]int(nil), xs...), ys...) {
			if !slices.Contains(want, id) {
				want = append(want, id)
			}
		}
		if n != len(want) || u.Len() != len(want) || !slices.Equal(u.Slice(), want) {
			return false
		}
		for _, id := range want {
			if !u.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("union is not set union: %v", err)
	}
}

// TestCloneIndependence checks that neither the copy Slice returns nor the
// zero-copy View aliases state a later change can reach: writing the copy
// leaves the set alone, and a View stays at its length as the set grows.
func TestCloneIndependence(t *testing.T) {
	s := NewSet[int](0)
	s.AddAll([]int{1, 2})
	copied, view := s.Slice(), s.View()
	copied[0] = 99
	s.Add(3)
	if !slices.Equal(view, []int{1, 2}) || !slices.Equal(s.Slice(), []int{1, 2, 3}) {
		t.Fatalf("Slice/View alias the set: view %v, set %v", view, s.Slice())
	}
}

// TestViewLearn checks that a view learns each peer once and reports it
// through Len, Contains and Slice. Keeping the owner out of its own view is
// the engine's job (TestValidIDFiltersLearnedIdentities).
func TestViewLearn(t *testing.T) {
	v := NewView[int](0)
	if !v.Add(1) || v.Add(1) {
		t.Fatal("Add dedup broken")
	}
	n := 0
	for _, id := range []int{1, 2, 3, 2} {
		if v.Add(id) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("learned %d new peers, want 2", n)
	}
	if v.Len() != 3 || !v.Contains(3) || v.Contains(4) {
		t.Fatalf("Len/Contains wrong: %v", v.Slice())
	}
	members := v.Slice()
	slices.Sort(members)
	if !slices.Equal(members, []int{1, 2, 3}) {
		t.Fatalf("Slice = %v", members)
	}
}

// TestViewSampleExcluding checks the §6 selection rule on a partitioned
// view: preferred peers fill a sample first, suspended peers and the
// excluded peer are never drawn, and a sample holds distinct peers.
func TestViewSampleExcluding(t *testing.T) {
	v := NewView[int](0)
	for i := 1; i <= 10; i++ {
		v.Add(i)
	}
	for _, id := range []int{1, 2, 3} {
		v.Promote(id)
	}
	v.Suspend(10)
	rng := rand.New(rand.NewSource(2))
	for _, exclude := range []int{2, 5, 10} {
		eligible, preferred := 9, 3 // peers 1..9, of which 1..3 preferred
		if exclude != 10 {
			eligible--
		}
		if exclude <= 3 {
			preferred--
		}
		for trial := 0; trial < 100; trial++ {
			got := v.SampleInto(nil, 10, rng, exclude, true)
			if len(got) != eligible {
				t.Fatalf("exclude %d: sample %v has %d peers, want %d", exclude, got, len(got), eligible)
			}
			for i, id := range got {
				if id == exclude || id == 10 {
					t.Fatalf("exclude %d: sample %v contains %d", exclude, got, id)
				}
				if (id <= 3) != (i < preferred) {
					t.Fatalf("exclude %d: preferred peers not drawn first: %v", exclude, got)
				}
			}
		}
	}
	// k smaller than candidates: distinct entries.
	got := v.SampleInto(nil, 4, rng, 0, false)
	if len(got) != 4 {
		t.Fatalf("sample size = %d", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("sample has duplicate %d", id)
		}
		seen[id] = true
	}
}

// TestViewSampleEdgeCases checks that a draw adds nothing when there is
// nothing to draw: an empty view, k = 0, every peer excluded or suspended.
func TestViewSampleEdgeCases(t *testing.T) {
	v := NewView[int](0)
	rng := rand.New(rand.NewSource(3))
	if got := v.SampleInto(nil, 3, rng, 0, false); len(got) != 0 {
		t.Fatalf("sample on empty view = %v", got)
	}
	v.Add(1)
	if got := v.SampleInto(nil, 0, rng, 0, false); len(got) != 0 {
		t.Fatalf("sample k=0 = %v", got)
	}
	if got := v.SampleInto(nil, 3, rng, 1, true); len(got) != 0 {
		t.Fatalf("fully excluded sample = %v", got)
	}
	v.Suspend(1)
	if got := v.SampleInto(nil, 3, rng, 0, false); len(got) != 0 {
		t.Fatalf("all-suspended sample = %v", got)
	}
	// A draw appends: whatever the caller's buffer holds stays.
	v.Release(1, false)
	if got := v.SampleInto([]int{9}, 3, rng, 0, false); !slices.Equal(got, []int{9, 1}) {
		t.Fatalf("sample into buffer = %v, want [9 1]", got)
	}
}

func TestViewSampleUniformity(t *testing.T) {
	// Loose sanity check: each of 5 members appears roughly equally often in
	// 1-element samples, although every draw reorders the view in place.
	v := NewView[int](0)
	for i := 1; i <= 5; i++ {
		v.Add(i)
	}
	rng := rand.New(rand.NewSource(4))
	counts := map[int]int{}
	const trials = 5000
	buf := make([]int, 0, 1)
	for i := 0; i < trials; i++ {
		got := v.SampleInto(buf[:0], 1, rng, 0, false)
		counts[got[0]]++
	}
	if len(counts) != 5 {
		t.Fatalf("only %d of 5 members ever sampled", len(counts))
	}
	for id, c := range counts {
		frac := float64(c) / trials
		if frac < 0.15 || frac > 0.25 {
			t.Fatalf("member %d sampled with frequency %.3f, want ≈ 0.2", id, frac)
		}
	}
}

// TestViewInvariantsUnderRandomOps drives a view with a random mix of adds,
// promotions, suspensions, releases and samples against a model of each
// peer's segment, and checks after every step that the position index
// mirrors the order and every peer sits in its model segment.
func TestViewInvariantsUnderRandomOps(t *testing.T) {
	const (
		avail = iota
		pref
		susp
	)
	v := NewView[int](0)
	model := map[int]int{}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 3000; step++ {
		id := rng.Intn(40)
		_, known := model[id]
		switch rng.Intn(5) {
		case 0:
			if v.Add(id) == known {
				t.Fatalf("step %d: Add(%d) = %v with known=%v", step, id, !known, known)
			}
			if !known {
				model[id] = avail
			}
		case 1:
			v.Promote(id)
			if known {
				model[id] = pref
			}
		case 2:
			v.Suspend(id)
			if known {
				model[id] = susp
			}
		case 3:
			preferred := rng.Intn(2) == 0
			v.Release(id, preferred)
			if known && model[id] == susp {
				model[id] = avail
				if preferred {
					model[id] = pref
				}
			}
		case 4:
			for _, got := range v.SampleInto(nil, rng.Intn(8)+1, rng, id, true) {
				if got == id || model[got] == susp {
					t.Fatalf("step %d: sampled excluded or suspended peer %d", step, got)
				}
			}
		}
		if v.nPref < 0 || v.nPref > v.nAvail || v.nAvail > len(v.order) {
			t.Fatalf("step %d: segment bounds broken: nPref=%d nAvail=%d len=%d", step, v.nPref, v.nAvail, len(v.order))
		}
		if len(v.pos) != len(v.order) || len(v.order) != len(model) {
			t.Fatalf("step %d: pos has %d entries, order %d, model %d", step, len(v.pos), len(v.order), len(model))
		}
		for i, id := range v.order {
			if v.pos[id] != i {
				t.Fatalf("step %d: pos[%d] = %d, order says %d", step, id, v.pos[id], i)
			}
			seg := avail
			if i < v.nPref {
				seg = pref
			} else if i >= v.nAvail {
				seg = susp
			}
			if seg != model[id] {
				t.Fatalf("step %d: peer %d in segment %d, want %d", step, id, seg, model[id])
			}
		}
	}
}

func quickValues(fill func(args []interface{}, r *rand.Rand)) func([]reflect.Value, *rand.Rand) {
	return func(vals []reflect.Value, r *rand.Rand) {
		args := make([]interface{}, len(vals))
		fill(args, r)
		for i := range vals {
			vals[i] = reflect.ValueOf(args[i])
		}
	}
}
