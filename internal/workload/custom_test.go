package workload

import (
	"strings"
	"testing"

	"addict/internal/codemap"
	"addict/internal/storage"
)

// customManager builds a tiny populated manager for custom-workload tests.
func customManager(t *testing.T) (*storage.Manager, *storage.Table) {
	t.Helper()
	m := storage.NewManager(codemap.NewLayout())
	tbl := m.CreateTable("kv")
	tbl.CreateIndex("kv_pk")
	pop := m.Begin()
	for i := 0; i < 50; i++ {
		mustInsert(m, pop, tbl, []uint64{uint64(i)}, mkRec(64, uint64(i)))
	}
	m.Commit(pop)
	return m, tbl
}

// TestNewCustomValid: a well-formed spec list compiles and generates.
func TestNewCustomValid(t *testing.T) {
	m, tbl := customManager(t)
	b, err := NewCustom("KV", m, 1, []TxnSpec{
		{Name: "Get", Weight: 1.0, Run: func(txn *storage.Txn) {
			m.IndexProbe(txn, tbl, tbl.Index(0), 7)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := GenerateSet(b, 5)
	if len(s.Traces) != 5 {
		t.Fatalf("generated %d traces", len(s.Traces))
	}
}

// TestNewCustomErrorPaths locks the validation of user-supplied specs:
// each malformed list must fail with a diagnostic naming the problem
// instead of surfacing later as a NaN mix or a panic.
func TestNewCustomErrorPaths(t *testing.T) {
	m, tbl := customManager(t)
	noop := func(txn *storage.Txn) { m.IndexProbe(txn, tbl, tbl.Index(0), 1) }
	cases := []struct {
		name  string
		types []TxnSpec
		want  string
	}{
		{"empty types", nil, "no transaction types"},
		{"zero weights", []TxnSpec{
			{Name: "A", Weight: 0, Run: noop},
			{Name: "B", Weight: 0, Run: noop},
		}, "sum to 0"},
		{"negative weight", []TxnSpec{
			{Name: "A", Weight: -0.5, Run: noop},
			{Name: "B", Weight: 1.5, Run: noop},
		}, "negative weight"},
		{"nil run", []TxnSpec{{Name: "A", Weight: 1}}, "no Run"},
		{"unnamed type", []TxnSpec{{Weight: 1, Run: noop}}, "no name"},
		{"duplicate name", []TxnSpec{
			{Name: "A", Weight: 0.5, Run: noop},
			{Name: "A", Weight: 0.5, Run: noop},
		}, "duplicate type name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := NewCustom("Bad", m, 1, c.types)
			if err == nil {
				t.Fatalf("accepted: %+v", b)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestNewCustomSingleZeroWeightAmongPositive: a zero weight next to
// positive ones is legal (the type just never fires) — only an all-zero
// total is rejected.
func TestNewCustomSingleZeroWeightAmongPositive(t *testing.T) {
	m, tbl := customManager(t)
	noop := func(txn *storage.Txn) { m.IndexProbe(txn, tbl, tbl.Index(0), 1) }
	b, err := NewCustom("Mixed", m, 3, []TxnSpec{
		{Name: "Never", Weight: 0, Run: func(txn *storage.Txn) {
			t.Error("zero-weight type executed")
		}},
		{Name: "Always", Weight: 1, Run: noop},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := GenerateSet(b, 30)
	for _, tr := range s.Traces {
		if tr.TypeName != "Always" {
			t.Fatalf("unexpected type %q", tr.TypeName)
		}
	}
}
