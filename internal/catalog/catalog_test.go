package catalog

import (
	"strings"
	"testing"
)

func sampleRelation() *Relation {
	return NewRelation("R", 1000, 512,
		NewAttribute("a", 800, true),
		NewAttribute("b", 50, false),
	)
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	if err := c.AddRelation(sampleRelation()); err != nil {
		t.Fatal(err)
	}
	r, err := c.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "R" || r.Cardinality != 1000 {
		t.Errorf("unexpected relation %+v", r)
	}
	if _, err := c.Relation("missing"); err == nil {
		t.Error("lookup of unknown relation must fail")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestDuplicateRelation(t *testing.T) {
	c := New()
	if err := c.AddRelation(sampleRelation()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRelation(sampleRelation()); err == nil {
		t.Error("duplicate relation must be rejected")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		rel  *Relation
		want string
	}{
		{"empty name", NewRelation("", 10, 512), "empty name"},
		{"negative card", NewRelation("R", -1, 512), "negative cardinality"},
		{"zero record", NewRelation("R", 10, 0), "non-positive record size"},
		{"empty attr", NewRelation("R", 10, 512, NewAttribute("", 5, false)), "empty name"},
		{"dup attr", NewRelation("R", 10, 512, NewAttribute("a", 5, false), NewAttribute("a", 5, false)), "duplicate attribute"},
		{"bad domain", NewRelation("R", 10, 512, NewAttribute("a", 0, false)), "domain size"},
	}
	for _, tc := range cases {
		c := New()
		err := c.AddRelation(tc.rel)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPages(t *testing.T) {
	// 2048-byte pages, 512-byte records: 4 records per page.
	r := NewRelation("R", 1000, 512)
	if got := r.Pages(); got != 250 {
		t.Errorf("Pages = %d, want 250", got)
	}
	r = NewRelation("R", 1001, 512)
	if got := r.Pages(); got != 251 {
		t.Errorf("Pages = %d, want 251 (ceil)", got)
	}
	r = NewRelation("R", 0, 512)
	if got := r.Pages(); got != 0 {
		t.Errorf("Pages of empty relation = %d, want 0", got)
	}
	// Record wider than a page still takes one page per record.
	r = NewRelation("R", 3, 4096)
	if got := r.Pages(); got != 3 {
		t.Errorf("Pages with oversized record = %d, want 3", got)
	}
}

func TestAttributeLookup(t *testing.T) {
	r := sampleRelation()
	a, err := r.Attribute("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.QualifiedName() != "R.a" {
		t.Errorf("QualifiedName = %q", a.QualifiedName())
	}
	if _, err := r.Attribute("zzz"); err == nil {
		t.Error("unknown attribute lookup must fail")
	}
	if idx := r.AttrIndex("b"); idx != 1 {
		t.Errorf("AttrIndex(b) = %d, want 1", idx)
	}
	if idx := r.AttrIndex("zzz"); idx != -1 {
		t.Errorf("AttrIndex(zzz) = %d, want -1", idx)
	}
}

func TestAttrsByNameSorted(t *testing.T) {
	r := NewRelation("R", 10, 512,
		NewAttribute("z", 5, true),
		NewAttribute("a", 5, true),
		NewAttribute("m", 5, false),
	)
	byName := r.AttrsByName()
	if len(byName) != 3 || byName[0].Name != "a" || byName[1].Name != "m" || byName[2].Name != "z" {
		t.Errorf("AttrsByName = %v", byName)
	}
	// The schema order is untouched, and the cached qualified names agree
	// with it.
	if r.Attrs[0].Name != "z" || r.QualifiedNames()[0] != "R.z" || byName[0].QualifiedName() != "R.a" {
		t.Errorf("schema order or qualified names disturbed: %v %v", r.Attrs, r.QualifiedNames())
	}
}

func TestRelationsOrder(t *testing.T) {
	c := New()
	for _, n := range []string{"C", "A", "B"} {
		if err := c.AddRelation(NewRelation(n, 1, 512)); err != nil {
			t.Fatal(err)
		}
	}
	rels := c.Relations()
	if len(rels) != 3 || rels[0].Name != "C" || rels[1].Name != "A" || rels[2].Name != "B" {
		t.Errorf("Relations order not preserved: %v", rels)
	}
}

func TestMustHelpers(t *testing.T) {
	c := New()
	if err := c.AddRelation(sampleRelation()); err != nil {
		t.Fatal(err)
	}
	if c.MustRelation("R").MustAttribute("a").Name != "a" {
		t.Error("Must helpers misbehave")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRelation of unknown name must panic")
		}
	}()
	c.MustRelation("missing")
}

func TestQualifiedNameWithoutRelation(t *testing.T) {
	a := NewAttribute("solo", 5, false)
	if a.QualifiedName() != "solo" {
		t.Errorf("unattached attribute QualifiedName = %q", a.QualifiedName())
	}
}
