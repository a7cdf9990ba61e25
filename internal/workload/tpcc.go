package workload

import (
	"encoding/binary"
	"math/rand"

	"addict/internal/codemap"
	"addict/internal/storage"
)

// TPC-C: the order-entry benchmark. Five transaction types at the spec mix
// (NewOrder 45, Payment 43, OrderStatus 4, Delivery 4, StockLevel 4).
// NewOrder inserts into indexed tables (orders carries two indexes), which
// is why its insert operation shows the paper's extra create-index-entry
// code compared to TPC-B (Section 2.2.1); Payment inserts into the
// unindexed History table, so "the instructions for creating an index entry
// are not common in the overall mix".
const (
	tpccWarehouses    = 2
	tpccDistrictsPerW = 10
	tpccCustPerDist   = 3000
	tpccItems         = 10000
	tpccInitOrders    = 30 // per district; the newest third stay undelivered

	// Record sizes follow the TPC-C row sizes (customer ~655B, stock
	// ~306B, item ~82B, order-line ~54B ...), so the data-block footprint
	// per transaction — and with it the last-level-cache pressure the
	// paper's "long-latency data misses" come from — is spec-shaped.
	tpccCustRec  = 655
	tpccStockRec = 306
	tpccItemRec  = 96
	tpccOrderRec = 64
	tpccOLineRec = 64
	tpccHistRec  = 60
	tpccWhRec    = 100
	tpccDistRec  = 100

	tpccMinLines = 3
	tpccMaxLines = 7
)

// Composite key encodings (all fields are small enough to pack into 64
// bits; keys only need to be unique and order-correct within one index).
func distKey(w, d int) uint64     { return uint64(w)<<8 | uint64(d) }
func custKey(w, d, c int) uint64  { return uint64(w)<<24 | uint64(d)<<16 | uint64(c) }
func stockKey(w, i int) uint64    { return uint64(w)<<24 | uint64(i) }
func orderKey(w, d, o int) uint64 { return uint64(w)<<40 | uint64(d)<<32 | uint64(o) }
func custOrdKey(w, d, c, o int) uint64 {
	return uint64(w)<<56 | uint64(d)<<48 | uint64(c)<<20 | uint64(o)
}
func olineKey(w, d, o, l int) uint64 {
	return uint64(w)<<56 | uint64(d)<<48 | uint64(o)<<8 | uint64(l)
}

type tpcc struct {
	m   *storage.Manager
	rng *rand.Rand

	warehouse, district, customer, item, stock *storage.Table
	orders, newOrder, orderLine, history       *storage.Table
	nCust, nItems, nW                          int
	nextOID                                    [][]int // [w][d]
	recentOrders                               [][][]recentOrder
}

type recentOrder struct{ c, o int }

// NewTPCC builds and populates a TPC-C database at the given scale
// (scale 1.0 ≈ 60k customers across 2 warehouses).
func NewTPCC(seed int64, scale float64) *Benchmark {
	rng := rand.New(rand.NewSource(seed))
	m := storage.NewManager(codemap.NewLayout())
	w := &tpcc{
		m:      m,
		rng:    rng,
		nW:     tpccWarehouses,
		nCust:  scaled(tpccCustPerDist, scale),
		nItems: scaled(tpccItems, scale),
	}

	w.warehouse = m.CreateTable("warehouse")
	w.warehouse.CreateIndex("warehouse_pk")
	w.district = m.CreateTable("district")
	w.district.CreateIndex("district_pk")
	w.customer = m.CreateTable("customer")
	w.customer.CreateIndex("customer_pk")
	w.item = m.CreateTable("item")
	w.item.CreateIndex("item_pk")
	w.stock = m.CreateTable("stock")
	w.stock.CreateIndex("stock_pk")
	w.orders = m.CreateTable("orders")
	w.orders.CreateIndex("orders_pk")
	w.orders.CreateIndex("orders_cust") // (w,d,c,o) secondary
	w.newOrder = m.CreateTable("new_order")
	w.newOrder.CreateIndex("new_order_pk")
	w.orderLine = m.CreateTable("order_line")
	w.orderLine.CreateIndex("order_line_pk")
	w.history = m.CreateTable("history_c") // no index, per spec

	w.populate()

	return newBenchmark("TPC-C", m, rng, []TxnSpec{
		{Name: "NewOrder", Weight: 0.45, Run: w.newOrderTxn},
		{Name: "Payment", Weight: 0.43, Run: w.paymentTxn},
		{Name: "OrderStatus", Weight: 0.04, Run: w.orderStatusTxn},
		{Name: "Delivery", Weight: 0.04, Run: w.deliveryTxn},
		{Name: "StockLevel", Weight: 0.04, Run: w.stockLevelTxn},
	})
}

func (w *tpcc) populate() {
	m := w.m
	pop := m.BeginLoad()
	w.nextOID = make([][]int, w.nW)
	w.recentOrders = make([][][]recentOrder, w.nW)
	for wh := 0; wh < w.nW; wh++ {
		mustInsert(m, pop, w.warehouse, []uint64{uint64(wh)}, mkRec(tpccWhRec, uint64(wh)))
		w.nextOID[wh] = make([]int, tpccDistrictsPerW)
		w.recentOrders[wh] = make([][]recentOrder, tpccDistrictsPerW)
		for d := 0; d < tpccDistrictsPerW; d++ {
			mustInsert(m, pop, w.district, []uint64{distKey(wh, d)}, mkRec(tpccDistRec, distKey(wh, d)))
			for c := 0; c < w.nCust; c++ {
				mustInsert(m, pop, w.customer, []uint64{custKey(wh, d, c)}, mkRec(tpccCustRec, custKey(wh, d, c)))
			}
		}
	}
	for i := 0; i < w.nItems; i++ {
		mustInsert(m, pop, w.item, []uint64{uint64(i)}, mkRec(tpccItemRec, uint64(i)))
		for wh := 0; wh < w.nW; wh++ {
			mustInsert(m, pop, w.stock, []uint64{stockKey(wh, i)}, mkRec(tpccStockRec, stockKey(wh, i)))
		}
	}
	// Initial orders: the newest third are undelivered (rows in new_order).
	for wh := 0; wh < w.nW; wh++ {
		for d := 0; d < tpccDistrictsPerW; d++ {
			for o := 0; o < tpccInitOrders; o++ {
				c := w.rng.Intn(w.nCust)
				w.insertOrder(pop, wh, d, o, c, tpccMinLines+w.rng.Intn(tpccMaxLines-tpccMinLines+1),
					o >= tpccInitOrders*2/3)
			}
			w.nextOID[wh][d] = tpccInitOrders
		}
	}
	m.Commit(pop)
}

// insertOrder writes an order row, its lines, and optionally its new_order
// row; it also remembers the order for OrderStatus targeting.
func (w *tpcc) insertOrder(txn *storage.Txn, wh, d, o, c, lines int, undelivered bool) {
	m := w.m
	orec := mkRec(tpccOrderRec, orderKey(wh, d, o))
	binary.LittleEndian.PutUint64(orec[8:], uint64(c))
	binary.LittleEndian.PutUint16(orec[16:], uint16(lines))
	mustInsert(m, txn, w.orders, []uint64{orderKey(wh, d, o), custOrdKey(wh, d, c, o)}, orec)
	if undelivered {
		mustInsert(m, txn, w.newOrder, []uint64{orderKey(wh, d, o)}, mkRec(24, orderKey(wh, d, o)))
	}
	for l := 0; l < lines; l++ {
		item := w.rng.Intn(w.nItems)
		lrec := mkRec(tpccOLineRec, olineKey(wh, d, o, l))
		binary.LittleEndian.PutUint64(lrec[8:], uint64(item))
		mustInsert(m, txn, w.orderLine, []uint64{olineKey(wh, d, o, l)}, lrec)
	}
	ro := w.recentOrders[wh][d]
	if len(ro) >= 128 {
		ro = ro[1:]
	}
	w.recentOrders[wh][d] = append(ro, recentOrder{c: c, o: o})
}

// newOrderTxn: the order-entry transaction (45% of the mix). Probes
// warehouse/district/customer, updates the district's next-order counter,
// then per line probes item and stock and updates stock, and finally inserts
// the order (two indexes), new-order, and line rows. 1% of item probes use
// an invalid item id, exercising the not-found flag path of index probe.
func (w *tpcc) newOrderTxn(txn *storage.Txn) {
	m := w.m
	wh := w.rng.Intn(w.nW)
	d := w.rng.Intn(tpccDistrictsPerW)
	c := w.rng.Intn(w.nCust)

	if _, _, ok := m.IndexProbe(txn, w.warehouse, w.warehouse.Index(0), uint64(wh)); !ok {
		panic("tpcc: warehouse missing")
	}
	drid, drec, ok := m.IndexProbe(txn, w.district, w.district.Index(0), distKey(wh, d))
	if !ok {
		panic("tpcc: district missing")
	}
	bumpBalance(drec, 1) // next_o_id++
	must(m.UpdateTuple(txn, w.district, drid, distKey(wh, d), drec))
	if _, _, ok := m.IndexProbe(txn, w.customer, w.customer.Index(0), custKey(wh, d, c)); !ok {
		panic("tpcc: customer missing")
	}

	lines := tpccMinLines + w.rng.Intn(tpccMaxLines-tpccMinLines+1)
	for l := 0; l < lines; l++ {
		item := w.rng.Intn(w.nItems)
		if w.rng.Intn(100) == 0 {
			item = w.nItems + 17 // invalid item: probe takes the miss path
		}
		if _, _, ok := m.IndexProbe(txn, w.item, w.item.Index(0), uint64(item)); !ok {
			continue // spec: unused item number → line skipped
		}
		srid, srec, ok := m.IndexProbe(txn, w.stock, w.stock.Index(0), stockKey(wh, item))
		if !ok {
			panic("tpcc: stock missing")
		}
		bumpBalance(srec, ^uint64(0)) // quantity--
		must(m.UpdateTuple(txn, w.stock, srid, stockKey(wh, item), srec))
	}

	o := w.nextOID[wh][d]
	w.nextOID[wh][d]++
	w.insertOrder(txn, wh, d, o, c, lines, true)
}

// paymentTxn (43%): probe+update warehouse, district, customer; insert an
// unindexed history row.
func (w *tpcc) paymentTxn(txn *storage.Txn) {
	m := w.m
	wh := w.rng.Intn(w.nW)
	d := w.rng.Intn(tpccDistrictsPerW)
	c := w.rng.Intn(w.nCust)
	amount := uint64(1 + w.rng.Intn(5000))

	wrid, wrec, ok := m.IndexProbe(txn, w.warehouse, w.warehouse.Index(0), uint64(wh))
	if !ok {
		panic("tpcc: warehouse missing")
	}
	bumpBalance(wrec, amount)
	must(m.UpdateTuple(txn, w.warehouse, wrid, uint64(wh), wrec))

	drid, drec, ok := m.IndexProbe(txn, w.district, w.district.Index(0), distKey(wh, d))
	if !ok {
		panic("tpcc: district missing")
	}
	bumpBalance(drec, amount)
	must(m.UpdateTuple(txn, w.district, drid, distKey(wh, d), drec))

	crid, crec, ok := m.IndexProbe(txn, w.customer, w.customer.Index(0), custKey(wh, d, c))
	if !ok {
		panic("tpcc: customer missing")
	}
	bumpBalance(crec, amount)
	must(m.UpdateTuple(txn, w.customer, crid, custKey(wh, d, c), crec))

	hist := mkRec(tpccHistRec, custKey(wh, d, c))
	if _, err := m.InsertTuple(txn, w.history, nil, hist); err != nil {
		panic(err)
	}
}

// orderStatusTxn (4%, read-only): probe the customer, find their most
// recent order through the (w,d,c,o) secondary index, and scan its lines.
func (w *tpcc) orderStatusTxn(txn *storage.Txn) {
	m := w.m
	wh := w.rng.Intn(w.nW)
	d := w.rng.Intn(tpccDistrictsPerW)
	ro := w.recentOrders[wh][d]
	if len(ro) == 0 {
		return
	}
	target := ro[w.rng.Intn(len(ro))]
	c := target.c

	if _, _, ok := m.IndexProbe(txn, w.customer, w.customer.Index(0), custKey(wh, d, c)); !ok {
		panic("tpcc: customer missing")
	}
	// Latest order of this customer via the secondary index.
	res := m.IndexScan(txn, w.orders.Index(1), custOrdKey(wh, d, c, 0), custOrdKey(wh, d, c, 1<<20-1), true, true, 0)
	if len(res) == 0 {
		return
	}
	o := int(res[len(res)-1].Key & (1<<20 - 1))
	m.IndexScan(txn, w.orderLine.Index(0), olineKey(wh, d, o, 0), olineKey(wh, d, o, 255), true, true, 0)
}

// deliveryTxn (4%): for every district, pop the oldest undelivered order
// from new_order, mark the order delivered, stamp its lines, and credit the
// customer. The spec's deferred-delivery batch is what makes this the mix's
// largest transaction.
func (w *tpcc) deliveryTxn(txn *storage.Txn) {
	m := w.m
	wh := w.rng.Intn(w.nW)
	for d := 0; d < tpccDistrictsPerW; d++ {
		no := m.IndexScan(txn, w.newOrder.Index(0), orderKey(wh, d, 0), orderKey(wh, d, 1<<24), true, true, 1)
		if len(no) == 0 {
			continue // district fully delivered
		}
		noRID := no[0].RID
		oKey := no[0].Key
		must(m.DeleteTuple(txn, w.newOrder, noRID, []uint64{oKey}))

		orid, orec, ok := m.IndexProbe(txn, w.orders, w.orders.Index(0), oKey)
		if !ok {
			panic("tpcc: delivered order missing")
		}
		c := int(binary.LittleEndian.Uint64(orec[8:]))
		lines := int(binary.LittleEndian.Uint16(orec[16:]))
		bumpBalance(orec, 7) // carrier id
		must(m.UpdateTuple(txn, w.orders, orid, oKey, orec))

		o := int(oKey & 0xffff_ffff)
		ols := m.IndexScan(txn, w.orderLine.Index(0), olineKey(wh, d, o, 0), olineKey(wh, d, o, 255), true, true, 0)
		if len(ols) != lines {
			panic("tpcc: order line count mismatch")
		}
		for _, ol := range ols {
			lrec := append([]byte(nil), ol.Rec...)
			bumpBalance(lrec, 1) // delivery date
			must(m.UpdateTuple(txn, w.orderLine, ol.RID, ol.Key, lrec))
		}

		crid, crec, ok := m.IndexProbe(txn, w.customer, w.customer.Index(0), custKey(wh, d, c))
		if !ok {
			panic("tpcc: customer missing")
		}
		bumpBalance(crec, 100)
		must(m.UpdateTuple(txn, w.customer, crid, custKey(wh, d, c), crec))
	}
}

// stockLevelTxn (4%, read-only): read the district's recent order lines and
// probe the stock row of each distinct item.
func (w *tpcc) stockLevelTxn(txn *storage.Txn) {
	m := w.m
	wh := w.rng.Intn(w.nW)
	d := w.rng.Intn(tpccDistrictsPerW)
	if _, _, ok := m.IndexProbe(txn, w.district, w.district.Index(0), distKey(wh, d)); !ok {
		panic("tpcc: district missing")
	}
	cur := w.nextOID[wh][d]
	lo := cur - 20
	if lo < 0 {
		lo = 0
	}
	ols := m.IndexScan(txn, w.orderLine.Index(0), olineKey(wh, d, lo, 0), olineKey(wh, d, cur, 255), true, true, 100)
	seen := make(map[uint64]struct{}, len(ols))
	for _, ol := range ols {
		item := binary.LittleEndian.Uint64(ol.Rec[8:])
		if _, dup := seen[item]; dup {
			continue
		}
		seen[item] = struct{}{}
		if len(seen) > 20 {
			break
		}
		m.IndexProbe(txn, w.stock, w.stock.Index(0), stockKey(wh, int(item)))
	}
}
