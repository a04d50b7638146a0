package vocab

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testVocabulary builds a small diamond-shaped taxonomy:
//
//	         entity
//	        /      \
//	    moving    fixed
//	   /   |  \      \
//	car  boat  amphib  house
//	             |
//	           (also child of fixed → DAG diamond)
func testVocabulary(t *testing.T) *Vocabulary {
	t.Helper()
	b := NewBuilder("T", "entity")
	moving := b.Concept("moving", 0)
	fixed := b.Concept("fixed", 0)
	b.Concept("car", moving)
	b.Concept("boat", moving)
	b.Concept("amphib", moving, fixed)
	b.Concept("house", fixed)
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return v
}

func id(t *testing.T, v *Vocabulary, name string) ConceptID {
	t.Helper()
	c, ok := v.Lookup(name)
	if !ok {
		t.Fatalf("concept %q missing", name)
	}
	return c
}

func TestDepths(t *testing.T) {
	v := testVocabulary(t)
	cases := map[string]int{
		"entity": 1, "moving": 2, "fixed": 2,
		"car": 3, "boat": 3, "amphib": 3, "house": 3,
	}
	for name, want := range cases {
		if got := v.Depth(id(t, v, name)); got != want {
			t.Errorf("Depth(%s) = %d, want %d", name, got, want)
		}
	}
	if v.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d, want 3", v.MaxDepth())
	}
}

func TestLCS(t *testing.T) {
	v := testVocabulary(t)
	cases := []struct{ a, b, want string }{
		{"car", "boat", "moving"},
		{"car", "house", "entity"},
		{"car", "car", "car"},
		{"car", "moving", "moving"},
		{"amphib", "house", "fixed"},
		{"amphib", "car", "moving"},
		{"entity", "car", "entity"},
	}
	for _, c := range cases {
		got := v.LCS(id(t, v, c.a), id(t, v, c.b))
		if v.Name(got) != c.want {
			t.Errorf("LCS(%s, %s) = %s, want %s", c.a, c.b, v.Name(got), c.want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	v := testVocabulary(t)
	cases := []struct {
		a, b string
		want int
	}{
		{"car", "car", 0},
		{"car", "moving", 1},
		{"car", "boat", 2},
		{"car", "house", 4},
		{"amphib", "house", 2}, // via fixed
		{"entity", "car", 2},
	}
	for _, c := range cases {
		if got := v.ShortestPath(id(t, v, c.a), id(t, v, c.b)); got != c.want {
			t.Errorf("ShortestPath(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAncestorsAndIsAncestor(t *testing.T) {
	v := testVocabulary(t)
	amphib := id(t, v, "amphib")
	anc := v.Ancestors(amphib)
	for _, name := range []string{"amphib", "moving", "fixed", "entity"} {
		if !anc[id(t, v, name)] {
			t.Errorf("Ancestors(amphib) missing %s", name)
		}
	}
	if anc[id(t, v, "car")] {
		t.Errorf("Ancestors(amphib) wrongly contains car")
	}
	if !v.IsAncestor(id(t, v, "entity"), amphib) {
		t.Errorf("entity should be ancestor of amphib")
	}
	if v.IsAncestor(id(t, v, "car"), amphib) {
		t.Errorf("car should not be ancestor of amphib")
	}
}

func TestSynonymLookup(t *testing.T) {
	b := NewBuilder("T", "root")
	x := b.Concept("accept_cmd", 0)
	b.Synonym(x, "accept_command")
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got, ok := v.Lookup("accept_command")
	if !ok || got != x {
		t.Fatalf("synonym lookup = (%d, %v), want (%d, true)", got, ok, x)
	}
	if v.Name(got) != "accept_cmd" {
		t.Fatalf("canonical name = %q", v.Name(got))
	}
}

func TestAntonymSymmetric(t *testing.T) {
	b := NewBuilder("T", "root")
	a := b.Concept("on", 0)
	c := b.Concept("off", 0)
	b.Antonym(a, c)
	b.Antonym(a, c) // duplicate must be ignored
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !v.IsAntonym(a, c) || !v.IsAntonym(c, a) {
		t.Fatalf("antonym relation not symmetric")
	}
	if len(v.Antonyms(a)) != 1 {
		t.Fatalf("duplicate antonym recorded: %v", v.Antonyms(a))
	}
	if v.IsAntonym(a, a) {
		t.Fatalf("concept is its own antonym")
	}
}

func TestICProperties(t *testing.T) {
	v := testVocabulary(t)
	if got := v.IC(v.Root()); got != 0 {
		t.Errorf("IC(root) = %f, want 0", got)
	}
	// IC must be monotonically non-decreasing along any root→leaf path.
	car := id(t, v, "car")
	moving := id(t, v, "moving")
	if v.IC(car) < v.IC(moving) {
		t.Errorf("IC(car)=%f < IC(moving)=%f", v.IC(car), v.IC(moving))
	}
	if v.MaxIC() <= 0 {
		t.Errorf("MaxIC = %f, want > 0", v.MaxIC())
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate concept", func(t *testing.T) {
		b := NewBuilder("T", "root")
		b.Concept("x", 0)
		b.Concept("x", 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected duplicate error")
		}
	})
	t.Run("no parent", func(t *testing.T) {
		b := NewBuilder("T", "root")
		b.Concept("orphan")
		if _, err := b.Build(); err == nil {
			t.Fatal("expected no-parent error")
		}
	})
	t.Run("invalid parent", func(t *testing.T) {
		b := NewBuilder("T", "root")
		b.Concept("x", 42)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected invalid-parent error")
		}
	})
	t.Run("synonym collision", func(t *testing.T) {
		b := NewBuilder("T", "root")
		x := b.Concept("x", 0)
		b.Concept("y", 0)
		b.Synonym(x, "y")
		if _, err := b.Build(); err == nil {
			t.Fatal("expected synonym collision error")
		}
	})
	t.Run("negative frequency", func(t *testing.T) {
		b := NewBuilder("T", "root")
		x := b.Concept("x", 0)
		b.Frequency(x, -1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected frequency error")
		}
	})
}

// randomVocabulary builds a random tree-shaped taxonomy for property tests.
func randomVocabulary(r *rand.Rand, n int) *Vocabulary {
	b := NewBuilder("R", "c0")
	ids := []ConceptID{0}
	for i := 1; i < n; i++ {
		parent := ids[r.Intn(len(ids))]
		id := b.Concept(nameOf(i), parent)
		ids = append(ids, id)
	}
	return b.MustBuild()
}

func nameOf(i int) string {
	return "c" + string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestLCSPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		v := randomVocabulary(r, 3+r.Intn(60))
		for q := 0; q < 30; q++ {
			a := ConceptID(r.Intn(v.Len()))
			c := ConceptID(r.Intn(v.Len()))
			lcs := v.LCS(a, c)
			if !v.IsAncestor(lcs, a) || !v.IsAncestor(lcs, c) {
				t.Fatalf("LCS(%d,%d)=%d is not a common ancestor", a, c, lcs)
			}
			if v.Depth(lcs) > v.Depth(a) || v.Depth(lcs) > v.Depth(c) {
				t.Fatalf("LCS deeper than an argument")
			}
			if v.LCS(c, a) != lcs {
				// In a tree the LCS is unique, so it must be symmetric.
				t.Fatalf("LCS not symmetric: LCS(%d,%d)=%d, LCS(%d,%d)=%d",
					a, c, lcs, c, a, v.LCS(c, a))
			}
		}
	}
}

func TestShortestPathPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		v := randomVocabulary(r, 3+r.Intn(60))
		for q := 0; q < 30; q++ {
			a := ConceptID(r.Intn(v.Len()))
			c := ConceptID(r.Intn(v.Len()))
			d := v.ShortestPath(a, c)
			if d != v.ShortestPath(c, a) {
				t.Fatalf("path not symmetric")
			}
			if (d == 0) != (a == c) {
				t.Fatalf("path zero iff same concept violated: d=%d a=%d c=%d", d, a, c)
			}
			// In a tree, the path through the LCS is the shortest path.
			lcs := v.LCS(a, c)
			want := v.Depth(a) + v.Depth(c) - 2*v.Depth(lcs)
			if d != want {
				t.Fatalf("path %d != depth formula %d", d, want)
			}
		}
	}
}

func TestDepthPropertyQuick(t *testing.T) {
	v := Functions()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := ConceptID(r.Intn(v.Len()))
		// Depth is 1 + min parent depth.
		if c == v.Root() {
			return v.Depth(c) == 1
		}
		min := 1 << 30
		for _, p := range v.Parents(c) {
			if v.Depth(p) < min {
				min = v.Depth(p)
			}
		}
		return v.Depth(c) == min+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry(Functions(), CommandTypes())
	if _, ok := r.Get("Fun"); !ok {
		t.Fatal("Fun missing")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("unexpected vocabulary")
	}
	if err := r.Register(Functions()); err == nil {
		t.Fatal("duplicate register should fail")
	}
	got := r.Prefixes()
	if len(got) != 2 || got[0] != "CmdType" || got[1] != "Fun" {
		t.Fatalf("Prefixes = %v", got)
	}
	r.Freeze()
	if err := r.Register(MessageTypes()); err == nil {
		t.Fatal("register on a frozen registry should fail")
	}
	if _, ok := r.Get("Fun"); !ok || len(r.Prefixes()) != 2 {
		t.Fatal("freezing changed what the registry holds")
	}
}

func TestBuiltinVocabularies(t *testing.T) {
	reg := DefaultRegistry()
	for _, prefix := range []string{"Fun", "CmdType", "MsgType", "InType", "std"} {
		v, ok := reg.Get(prefix)
		if !ok {
			t.Fatalf("builtin %q missing", prefix)
		}
		if v.Len() < 10 {
			t.Errorf("%q suspiciously small: %d concepts", prefix, v.Len())
		}
		if v.MaxDepth() < 3 {
			t.Errorf("%q too shallow: depth %d", prefix, v.MaxDepth())
		}
	}
	// The paper's running example must resolve.
	fun, _ := reg.Get("Fun")
	accept, ok := fun.Lookup("accept_cmd")
	if !ok {
		t.Fatal("accept_cmd missing")
	}
	block, ok := fun.Lookup("block_cmd")
	if !ok {
		t.Fatal("block_cmd missing")
	}
	if !fun.IsAntonym(accept, block) {
		t.Fatal("accept_cmd and block_cmd must be antonyms (§II)")
	}
	cmd, _ := reg.Get("CmdType")
	if _, ok := cmd.Lookup("start-up"); !ok {
		t.Fatal("start-up missing")
	}
}

func TestBuiltinAntonymsShareArea(t *testing.T) {
	// Antonym pairs should be semantically close (same functional area):
	// that's what makes the paper's k-NN retrieval of inconsistencies
	// work. Verify every antonym pair has an LCS below the root.
	for _, v := range []*Vocabulary{Functions(), CommandTypes(), MessageTypes()} {
		for c := ConceptID(0); int(c) < v.Len(); c++ {
			for _, a := range v.Antonyms(c) {
				if lcs := v.LCS(c, a); lcs == v.Root() {
					t.Errorf("%s: antonyms %s / %s only share the root",
						v.Prefix(), v.Name(c), v.Name(a))
				}
			}
		}
	}
}
