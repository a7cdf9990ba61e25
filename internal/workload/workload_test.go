package workload

import (
	"testing"

	"addict/internal/trace"
)

// Small scales keep test populations fast; determinism is scale-independent.
const testScale = 0.02

func TestTPCBPopulation(t *testing.T) {
	b := NewTPCB(1, testScale)
	m := b.Manager()
	if got := m.MustTable("account").Rows(); got == 0 {
		t.Fatal("no accounts populated")
	}
	if got := m.MustTable("history").Rows(); got != 0 {
		t.Errorf("history has %d rows before any transaction", got)
	}
	if len(m.MustTable("history").Indexes()) != 0 {
		t.Error("history must have no index (TPC-B spec)")
	}
	if b.Name() != "TPC-B" {
		t.Errorf("Name = %q", b.Name())
	}
	if names := b.TypeNames(); len(names) != 1 || names[0] != "AccountUpdate" {
		t.Errorf("TypeNames = %v", names)
	}
}

func TestTPCCPopulation(t *testing.T) {
	b := NewTPCC(1, testScale)
	m := b.Manager()
	for _, tbl := range []string{"warehouse", "district", "customer", "item", "stock", "orders", "new_order", "order_line"} {
		if m.MustTable(tbl).Rows() == 0 {
			t.Errorf("table %s empty after population", tbl)
		}
	}
	if len(m.MustTable("orders").Indexes()) != 2 {
		t.Error("orders must carry two indexes (pk + customer)")
	}
	if len(m.MustTable("history_c").Indexes()) != 0 {
		t.Error("TPC-C history must have no index")
	}
}

func TestTPCEPopulation(t *testing.T) {
	b := NewTPCE(1, testScale)
	m := b.Manager()
	for _, tbl := range []string{"e_customer", "e_account", "e_security", "e_trade", "e_holding", "e_daily_market", "e_watch_item"} {
		if m.MustTable(tbl).Rows() == 0 {
			t.Errorf("table %s empty after population", tbl)
		}
	}
	if len(m.MustTable("e_trade").Indexes()) != 2 {
		t.Error("trade must carry two indexes")
	}
}

func TestMixRatios(t *testing.T) {
	b := NewTPCC(7, testScale)
	counts := make(map[string]int)
	s := GenerateSet(b, 1500)
	for _, tr := range s.Traces {
		counts[tr.TypeName]++
	}
	frac := func(name string) float64 { return float64(counts[name]) / 1500 }
	checks := map[string][2]float64{
		"NewOrder":    {0.40, 0.50},
		"Payment":     {0.38, 0.48},
		"OrderStatus": {0.02, 0.07},
		"Delivery":    {0.02, 0.07},
		"StockLevel":  {0.02, 0.07},
	}
	for name, bounds := range checks {
		if f := frac(name); f < bounds[0] || f > bounds[1] {
			t.Errorf("%s fraction = %.3f, want within [%.2f,%.2f]", name, f, bounds[0], bounds[1])
		}
	}
}

func TestTPCEMixReadOnlyShare(t *testing.T) {
	b := NewTPCE(7, testScale)
	s := GenerateSet(b, 1000)
	counts := make(map[string]int)
	for _, tr := range s.Traces {
		counts[tr.TypeName]++
	}
	// "almost 80% of the TPC-E mix is read-only" (Section 2.2.1).
	ro := counts["TradeStatus"] + counts["MarketWatch"] + counts["SecurityDetail"] +
		counts["CustomerPosition"] + counts["TradeLookup"] + counts["BrokerVolume"]
	if f := float64(ro) / 1000; f < 0.70 || f > 0.85 {
		t.Errorf("read-only fraction = %.3f, want ~0.77", f)
	}
	if f := float64(counts["TradeStatus"]) / 1000; f < 0.14 || f > 0.24 {
		t.Errorf("TradeStatus fraction = %.3f, want ~0.19", f)
	}
	if len(counts) != 10 {
		t.Errorf("saw %d transaction types in 1000 txns, want 10", len(counts))
	}
}

func TestAllTracesValidate(t *testing.T) {
	for _, b := range []*Benchmark{NewTPCB(3, testScale), NewTPCC(3, testScale), NewTPCE(3, testScale)} {
		s := GenerateSet(b, 120)
		for i, tr := range s.Traces {
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s trace %d (%s): %v", b.Name(), i, tr.TypeName, err)
			}
			if tr.InstrBlocks() == 0 {
				t.Fatalf("%s trace %d has no instruction events", b.Name(), i)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	s1 := GenerateSet(NewTPCC(42, testScale), 60)
	s2 := GenerateSet(NewTPCC(42, testScale), 60)
	if len(s1.Traces) != len(s2.Traces) {
		t.Fatal("trace counts differ")
	}
	for i := range s1.Traces {
		a, b := s1.Traces[i], s2.Traces[i]
		if a.Type != b.Type || len(a.Events) != len(b.Events) {
			t.Fatalf("trace %d differs in shape: %d/%d events", i, len(a.Events), len(b.Events))
		}
		for j := range a.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatalf("trace %d event %d differs: %+v vs %+v", i, j, a.Events[j], b.Events[j])
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s1 := GenerateSet(NewTPCB(1, testScale), 20)
	s2 := GenerateSet(NewTPCB(2, testScale), 20)
	same := true
	for i := range s1.Traces {
		if len(s1.Traces[i].Events) != len(s2.Traces[i].Events) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identically-shaped traces (suspicious)")
	}
}

func TestOpsByTransactionType(t *testing.T) {
	b := NewTPCC(5, testScale)
	s := GenerateSet(b, 400)
	opsOf := func(name string) map[trace.OpType]int {
		m := make(map[trace.OpType]int)
		for _, tr := range s.Traces {
			if tr.TypeName != name {
				continue
			}
			for _, o := range tr.Ops() {
				m[o.Op]++
			}
		}
		return m
	}
	no := opsOf("NewOrder")
	if no[trace.OpInsertTuple] == 0 || no[trace.OpIndexProbe] == 0 || no[trace.OpUpdateTuple] == 0 {
		t.Errorf("NewOrder ops missing kinds: %v", no)
	}
	pay := opsOf("Payment")
	if pay[trace.OpInsertTuple] == 0 || pay[trace.OpUpdateTuple] == 0 {
		t.Errorf("Payment ops missing kinds: %v", pay)
	}
	if pay[trace.OpIndexScan] != 0 {
		t.Errorf("Payment should not scan: %v", pay)
	}
	os := opsOf("OrderStatus")
	if os[trace.OpUpdateTuple] != 0 || os[trace.OpInsertTuple] != 0 || os[trace.OpDeleteTuple] != 0 {
		t.Errorf("OrderStatus must be read-only: %v", os)
	}
	del := opsOf("Delivery")
	if del[trace.OpDeleteTuple] == 0 {
		t.Errorf("Delivery performed no deletes: %v", del)
	}
}

// TestInstructionVsDataOverlap is the core Section 2 sanity check at
// workload level: same-type transactions must overlap heavily in
// instruction blocks and barely in data blocks.
func TestInstructionVsDataOverlap(t *testing.T) {
	b := NewTPCB(11, 0.2) // larger scale so data addresses spread
	s := GenerateSet(b, 60)
	instrCount := make(map[uint64]int)
	dataCount := make(map[uint64]int)
	for _, tr := range s.Traces {
		instr, data := tr.Footprint()
		for a := range instr {
			instrCount[a]++
		}
		for a := range data {
			dataCount[a]++
		}
	}
	share := func(m map[uint64]int, thresh int) float64 {
		common := 0
		for _, n := range m {
			if n >= thresh {
				common++
			}
		}
		return float64(common) / float64(len(m))
	}
	// Instruction blocks present in ≥90% of instances should dominate the
	// footprint; data blocks present in ≥90% should be a sliver.
	iShare := share(instrCount, 54)
	dShare := share(dataCount, 54)
	if iShare < 0.5 {
		t.Errorf("instruction blocks common to >=90%% of AccountUpdates = %.2f of footprint, want > 0.5", iShare)
	}
	if dShare > 0.15 {
		t.Errorf("data blocks common to >=90%% of AccountUpdates = %.2f of footprint, want < 0.15", dShare)
	}
	if iShare <= dShare {
		t.Errorf("instruction overlap (%.2f) must exceed data overlap (%.2f)", iShare, dShare)
	}
}

func TestBuilder(t *testing.T) {
	for _, name := range []string{"TPC-B", "tpcc", "TPC-E"} {
		f, err := Builder(name)
		if err != nil || f == nil {
			t.Errorf("Builder(%q) failed: %v", name, err)
		}
	}
	if _, err := Builder("TPC-Z"); err == nil {
		t.Error("Builder accepted unknown benchmark")
	}
}
