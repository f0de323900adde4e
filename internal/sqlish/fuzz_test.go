package sqlish

import (
	"strings"
	"testing"
)

// FuzzParse hardens the parser against arbitrary input: it must never
// panic, and on success the statement must be internally consistent.
// `go test` runs the seed corpus; `go test -fuzz=FuzzParse` explores.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM r",
		"select a.b from a where a.b <= ?v",
		"SELECT x.y, z.w FROM x, z WHERE x.y = z.w ORDER BY x.y",
		"select * from r where r.a <= 12.5 and r.b = s.c",
		"SELECT",
		"select * from r where r.a < 1",
		"????",
		"select * from r order by r.",
		"select * from r, , s",
		strings.Repeat("select ", 50),
		"select * from r where r.a <= ?" + strings.Repeat("v", 300),
		"SELECT \x00 FROM r",
		"select * from r where r.a <= 999999999999999999999999",
		"SeLeCt * FrOm r, s WhErE r.a <= ?v AnD r.b = s.c OrDeR bY r.a",
		"SELECT * FROM from",
		"SELECT * FROM r, FROM",
		"SELECT Order.a FROM r",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input)
		if err != nil {
			// Errors must render without panicking and mention a position.
			if msg := err.Error(); msg == "" {
				t.Error("empty error message")
			}
			return
		}
		if len(st.Relations) == 0 {
			t.Error("successful parse with no relations")
		}
		for _, r := range st.Relations {
			for _, kw := range reserved {
				if strings.EqualFold(r, kw) {
					t.Errorf("keyword %q parsed as a relation name", r)
				}
			}
		}
		for _, c := range st.Columns {
			if c.Rel == "" || c.Attr == "" {
				t.Errorf("unqualified projected column %+v", c)
			}
		}
		for _, sel := range st.Selections {
			if sel.Col.Rel == "" || sel.Col.Attr == "" {
				t.Errorf("unqualified selection column %+v", sel)
			}
		}
		for _, j := range st.Joins {
			if j.Left.Rel == "" || j.Right.Rel == "" {
				t.Errorf("unqualified join %+v", j)
			}
		}
	})
}
