package storage

import (
	"encoding/binary"
	"slices"
	"testing"
)

func fill(t *Table, n int) {
	for i := 0; i < n; i++ {
		t.Append(Row{int64(i), int64(i * 2)})
	}
}

func TestTablePaging(t *testing.T) {
	// 512-byte records: 4 rows per page.
	tab := NewTable("R", 2, 512, nil)
	fill(tab, 10)
	if lo, hi := tab.PageRows(0); hi-lo != 4 {
		t.Fatalf("rows on page 0 = %d, want 4", hi-lo)
	}
	if tab.NumRows() != 10 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	if tab.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", tab.NumPages())
	}
}

func TestOversizedRecords(t *testing.T) {
	tab := NewTable("wide", 2, 4096, nil)
	fill(tab, 3)
	if lo, hi := tab.PageRows(0); hi-lo != 1 || tab.NumPages() != 3 {
		t.Errorf("oversized records: rows on page 0=%d pages=%d", hi-lo, tab.NumPages())
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	tab := NewTable("R", 1, 512, nil)
	var rids []RID
	for i := 0; i < 25; i++ {
		rids = append(rids, tab.Append(Row{int64(i)}))
	}
	for i, rid := range rids {
		row, err := tab.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if row[0] != int64(i) {
			t.Errorf("Get(%v) = %v, want %d", rid, row, i)
		}
	}
	if _, err := tab.Get(RID{Page: 99, Slot: 0}); err == nil {
		t.Error("Get with invalid page must fail")
	}
	if _, err := tab.Get(RID{Page: 0, Slot: 99}); err == nil {
		t.Error("Get with invalid slot must fail")
	}
}

func TestFetchChargesRandomReads(t *testing.T) {
	tab := NewTable("R", 2, 512, nil)
	fill(tab, 10)
	var acc Accountant
	pos, err := tab.Fetch(RID{Page: 1, Slot: 0}, &acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 4 || tab.Row(pos)[0] != 4 {
		t.Errorf("Fetch returned position %d, row %v", pos, tab.Row(pos))
	}
	if acc.RandPageReads() != 1 {
		t.Errorf("RandPageReads = %d, want 1", acc.RandPageReads())
	}
	if _, err := tab.Fetch(RID{Page: 9, Slot: 0}, &acc, nil); err == nil {
		t.Error("Fetch of invalid rid must fail")
	}
}

func TestAccountantString(t *testing.T) {
	var acc Accountant
	acc.ReadSeq(10)
	acc.ReadRand(5)
	acc.Write(2)
	acc.Tuples(100)
	if s := acc.String(); s != "seq=10 rand=5 write=2 tuples=100" {
		t.Errorf("String = %q", s)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	s.AddTable(NewTable("R", 1, 512, nil))
	if _, err := s.Table("R"); err != nil {
		t.Error(err)
	}
	if _, err := s.Table("missing"); err == nil {
		t.Error("unknown table lookup must fail")
	}
}

// TestPageWalk reads a table page by page, the way sequential readers do:
// every row once, in RID order, each page ending at its length.
func TestPageWalk(t *testing.T) {
	tab := NewTable("R", 2, 512, nil)
	fill(tab, 10) // pages of 4, 4, 2 rows
	var got []int64
	for p := 0; p < tab.NumPages(); p++ {
		lo, hi := tab.PageRows(p)
		if want := min(4, 10-4*p); hi-lo != want {
			t.Errorf("page %d holds %d rows, want %d", p, hi-lo, want)
		}
		for slot := range hi - lo {
			row := tab.Row(lo + slot)
			if byRID, err := tab.Get(RID{Page: int32(p), Slot: int32(slot)}); err != nil || byRID[0] != row[0] {
				t.Errorf("page %d slot %d: walk %v, Get %v (%v)", p, slot, row, byRID, err)
			}
			got = append(got, row[0])
		}
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("walk order %v", got)
		}
	}
	if len(got) != 10 {
		t.Errorf("walk visited %d rows, want 10", len(got))
	}
}

// FuzzFlatTable checks a table against a model of one slice per row:
// rows of width 1–8 values, 1 to PageBytes/8 of them to a page, appended
// one by one, then read back by Get, Fetch, the page walk and Values, with
// every position and its RID converting into each other. A table built
// from the same rows in one flat slice must read the same.
func FuzzFlatTable(f *testing.F) {
	f.Add(uint8(1), uint16(512), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), uint16(4096), binary.LittleEndian.AppendUint64(nil, 1<<63))
	f.Add(uint8(8), uint16(8), make([]byte, 8*8*300))
	f.Fuzz(func(t *testing.T, width uint8, recordBytes uint16, raw []byte) {
		w := 1 + int(width)%8
		rb := max(int(recordBytes), 8)
		rpp := max(PageBytes/rb, 1)
		var model [][]int64
		for i := 0; i+8*w <= len(raw); i += 8 * w {
			row := make([]int64, w)
			for j := range row {
				row[j] = int64(binary.LittleEndian.Uint64(raw[i+8*j:]))
			}
			model = append(model, row)
		}
		tab := NewTable("F", w, rb, nil)
		var flat []int64
		for pos, row := range model {
			rid := tab.Append(row)
			if want := (RID{Page: int32(pos / rpp), Slot: int32(pos % rpp)}); rid != want {
				t.Fatalf("row %d appended at %v, want %v", pos, rid, want)
			}
			row[0] = ^row[0] // Append must have copied the row
			row[0] = ^row[0]
			flat = append(flat, row...)
		}
		adopted := NewTable("F", w, rb, slices.Clone(flat))
		for _, tab := range []*Table{tab, adopted} {
			if tab.NumRows() != len(model) || tab.NumPages() != (len(model)+rpp-1)/rpp {
				t.Fatalf("%d rows of width %d, %d to a page: table reads %d rows on %d pages",
					len(model), w, rpp, tab.NumRows(), tab.NumPages())
			}
			if !slices.Equal(tab.Values(), flat) || cap(tab.Values()) != len(flat) {
				t.Fatal("Values differ from the rows appended, or are not capacity-clipped")
			}
			var acc Accountant
			for pos, row := range model {
				rid := tab.RID(pos)
				if back, err := tab.Pos(rid); err != nil || back != pos {
					t.Fatalf("position %d: RID %v converts back to %d (%v)", pos, rid, back, err)
				}
				got, err := tab.Get(rid)
				if err != nil || !slices.Equal(got, row) || cap(got) != w {
					t.Fatalf("Get(%v) = %v (%v), want %v", rid, got, err, row)
				}
				fetched, err := tab.Fetch(rid, &acc, nil)
				if err != nil || fetched != pos {
					t.Fatalf("Fetch(%v) = %d (%v), want %d", rid, fetched, err, pos)
				}
			}
			if acc.RandPageReads() != int64(len(model)) {
				t.Fatalf("%d fetches charged %d random reads", len(model), acc.RandPageReads())
			}
			next := 0
			for p := range tab.NumPages() {
				lo, hi := tab.PageRows(p)
				if lo != next || hi <= lo || hi-lo > rpp {
					t.Fatalf("page %d holds positions [%d, %d), want [%d, ≤ %d)", p, lo, hi, next, next+rpp)
				}
				for pos := lo; pos < hi; pos++ {
					if rid := tab.RID(pos); rid.Page != int32(p) || int(rid.Slot) != pos-lo {
						t.Fatalf("position %d on page %d has RID %v", pos, p, rid)
					}
					if !slices.Equal(tab.Row(pos), model[pos]) {
						t.Fatalf("page walk: position %d reads %v, want %v", pos, tab.Row(pos), model[pos])
					}
				}
				next = hi
			}
			if next != len(model) {
				t.Fatalf("page walk ends at %d of %d rows", next, len(model))
			}
			for _, bad := range []RID{{Page: int32(tab.NumPages())}, {Page: -1}, {Slot: -1}, {Slot: int32(rpp)},
				tab.RID(len(model))} {
				if _, err := tab.Get(bad); err == nil {
					t.Fatalf("Get(%v) of %d rows, %d to a page, did not fail", bad, len(model), rpp)
				}
			}
		}
	})
}
