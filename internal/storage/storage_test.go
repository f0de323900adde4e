package storage

import (
	"testing"
)

func fill(t *Table, n int) {
	for i := 0; i < n; i++ {
		t.Append(Row{int64(i), int64(i * 2)})
	}
}

func TestTablePaging(t *testing.T) {
	// 512-byte records: 4 rows per page.
	tab := NewTable("R", 512)
	fill(tab, 10)
	if got := len(tab.Page(0)); got != 4 {
		t.Fatalf("rows on page 0 = %d, want 4", got)
	}
	if tab.NumRows() != 10 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	if tab.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", tab.NumPages())
	}
}

func TestOversizedRecords(t *testing.T) {
	tab := NewTable("wide", 4096)
	fill(tab, 3)
	if len(tab.Page(0)) != 1 || tab.NumPages() != 3 {
		t.Errorf("oversized records: rows on page 0=%d pages=%d", len(tab.Page(0)), tab.NumPages())
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	tab := NewTable("R", 512)
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

func TestScanChargesSequentialReads(t *testing.T) {
	tab := NewTable("R", 512)
	fill(tab, 10) // 3 pages
	var acc Accountant
	count := 0
	tab.Scan(&acc, func(Row) bool { count++; return true })
	if count != 10 {
		t.Errorf("scan visited %d rows", count)
	}
	if acc.SeqPageReads() != 3 {
		t.Errorf("SeqPageReads = %d, want 3", acc.SeqPageReads())
	}
	// Early stop after the first row: only the first page is charged.
	acc = Accountant{}
	tab.Scan(&acc, func(Row) bool { return false })
	if acc.SeqPageReads() != 1 {
		t.Errorf("early-stop SeqPageReads = %d, want 1", acc.SeqPageReads())
	}
}

func TestFetchChargesRandomReads(t *testing.T) {
	tab := NewTable("R", 512)
	fill(tab, 10)
	var acc Accountant
	row, err := tab.Fetch(RID{Page: 1, Slot: 0}, &acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 4 {
		t.Errorf("Fetch returned %v", row)
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
	s.AddTable(NewTable("R", 512))
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
	tab := NewTable("R", 512)
	fill(tab, 10) // pages of 4, 4, 2 rows
	var got []int64
	for p := 0; p < tab.NumPages(); p++ {
		rows := tab.Page(p)
		if want := min(4, 10-4*p); len(rows) != want {
			t.Errorf("page %d holds %d rows, want %d", p, len(rows), want)
		}
		for slot, row := range rows {
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
