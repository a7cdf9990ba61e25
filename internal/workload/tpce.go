package workload

import (
	"encoding/binary"
	"math/rand"

	"addict/internal/codemap"
	"addict/internal/storage"
)

// TPC-E: the brokerage benchmark — ten transaction types, ~77% read-only,
// with TradeStatus as the most frequent at 19% of the mix (Section 2.2.1:
// "TPC-E has 10 transaction types in its mix, twice the number of TPC-C,
// and the most frequent transaction, TradeStatus, accounts for only 19%").
// The reproduction simplifies each transaction to its storage-operation
// skeleton (probes/scans/updates/inserts/deletes against the right tables)
// — which is all the memory-characterization and scheduling experiments
// observe.
const (
	tpceCustomers  = 2000
	tpceAcctsPer   = 2
	tpceSecurities = 1000
	tpceCompanies  = 500
	tpceBrokers    = 100
	tpceInitTrades = 20000
	tpceDays       = 30
	tpceWatchPer   = 10

	tpceCustRec  = 300
	tpceAcctRec  = 200
	tpceSecRec   = 220
	tpceCompRec  = 220
	tpceBrokRec  = 100
	tpceTradeRec = 210
	tpceHoldRec  = 120
	tpceLTRec    = 80
	tpceDMRec    = 80
	tpceWIRec    = 40
	tpceSettRec  = 100
)

func acctTradeKey(acct, t int) uint64 { return uint64(acct)<<28 | uint64(t) }
func holdKey(acct, sec int) uint64    { return uint64(acct)<<12 | uint64(sec) }
func dmKey(sec, day int) uint64       { return uint64(sec)<<8 | uint64(day) }
func watchKey(cust, sec int) uint64   { return uint64(cust)<<12 | uint64(sec) }

type tpce struct {
	m   *storage.Manager
	rng *rand.Rand

	customer, account, broker, security, company  *storage.Table
	lastTrade, trade, holding, dailyMarket, watch *storage.Table
	settlement                                    *storage.Table
	nCust, nAcct, nSec, nTrades                   int
	nextTrade                                     int
	recentTrades                                  []recentTrade
}

type recentTrade struct{ id, acct, sec int }

// NewTPCE builds and populates a TPC-E database at the given scale
// (scale 1.0 ≈ 2000 customers, 20000 initial trades).
func NewTPCE(seed int64, scale float64) *Benchmark {
	rng := rand.New(rand.NewSource(seed))
	m := storage.NewManager(codemap.NewLayout())
	w := &tpce{
		m:       m,
		rng:     rng,
		nCust:   scaled(tpceCustomers, scale),
		nSec:    scaled(tpceSecurities, scale),
		nTrades: scaled(tpceInitTrades, scale),
	}
	w.nAcct = w.nCust * tpceAcctsPer

	w.customer = m.CreateTable("e_customer")
	w.customer.CreateIndex("e_customer_pk")
	w.account = m.CreateTable("e_account")
	w.account.CreateIndex("e_account_pk")
	w.broker = m.CreateTable("e_broker")
	w.broker.CreateIndex("e_broker_pk")
	w.security = m.CreateTable("e_security")
	w.security.CreateIndex("e_security_pk")
	w.company = m.CreateTable("e_company")
	w.company.CreateIndex("e_company_pk")
	w.lastTrade = m.CreateTable("e_last_trade")
	w.lastTrade.CreateIndex("e_last_trade_pk")
	w.trade = m.CreateTable("e_trade")
	w.trade.CreateIndex("e_trade_pk")
	w.trade.CreateIndex("e_trade_acct") // (acct, trade) secondary
	w.holding = m.CreateTable("e_holding")
	w.holding.CreateIndex("e_holding_pk")
	w.dailyMarket = m.CreateTable("e_daily_market")
	w.dailyMarket.CreateIndex("e_daily_market_pk")
	w.watch = m.CreateTable("e_watch_item")
	w.watch.CreateIndex("e_watch_item_pk")
	w.settlement = m.CreateTable("e_settlement") // no index

	w.populate()

	return newBenchmark("TPC-E", m, rng, []TxnSpec{
		{Name: "TradeStatus", Weight: 0.19, Run: w.tradeStatus},
		{Name: "MarketWatch", Weight: 0.18, Run: w.marketWatch},
		{Name: "SecurityDetail", Weight: 0.14, Run: w.securityDetail},
		{Name: "CustomerPosition", Weight: 0.13, Run: w.customerPosition},
		{Name: "TradeOrder", Weight: 0.101, Run: w.tradeOrder},
		{Name: "TradeResult", Weight: 0.10, Run: w.tradeResult},
		{Name: "TradeLookup", Weight: 0.08, Run: w.tradeLookup},
		{Name: "BrokerVolume", Weight: 0.049, Run: w.brokerVolume},
		{Name: "TradeUpdate", Weight: 0.02, Run: w.tradeUpdate},
		{Name: "MarketFeed", Weight: 0.01, Run: w.marketFeed},
	})
}

func (w *tpce) populate() {
	m := w.m
	pop := m.BeginLoad()
	for c := 0; c < w.nCust; c++ {
		mustInsert(m, pop, w.customer, []uint64{uint64(c)}, mkRec(tpceCustRec, uint64(c)))
		for a := 0; a < tpceAcctsPer; a++ {
			acct := c*tpceAcctsPer + a
			rec := mkRec(tpceAcctRec, uint64(acct))
			binary.LittleEndian.PutUint64(rec[8:], uint64(c))
			mustInsert(m, pop, w.account, []uint64{uint64(acct)}, rec)
		}
		for i := 0; i < tpceWatchPer; i++ {
			sec := (c*7 + i*131) % w.nSec
			mustInsert(m, pop, w.watch, []uint64{watchKey(c, sec)}, mkRec(tpceWIRec, watchKey(c, sec)))
		}
	}
	for b := 0; b < tpceBrokers; b++ {
		mustInsert(m, pop, w.broker, []uint64{uint64(b)}, mkRec(tpceBrokRec, uint64(b)))
	}
	for co := 0; co < scaled(tpceCompanies, 1); co++ {
		mustInsert(m, pop, w.company, []uint64{uint64(co)}, mkRec(tpceCompRec, uint64(co)))
	}
	for s := 0; s < w.nSec; s++ {
		rec := mkRec(tpceSecRec, uint64(s))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s%tpceCompanies)) // company
		mustInsert(m, pop, w.security, []uint64{uint64(s)}, rec)
		mustInsert(m, pop, w.lastTrade, []uint64{uint64(s)}, mkRec(tpceLTRec, uint64(s)))
		for day := 0; day < tpceDays; day++ {
			mustInsert(m, pop, w.dailyMarket, []uint64{dmKey(s, day)}, mkRec(tpceDMRec, dmKey(s, day)))
		}
	}
	for t := 0; t < w.nTrades; t++ {
		acct := w.rng.Intn(w.nAcct)
		sec := w.rng.Intn(w.nSec)
		w.insertTrade(pop, t, acct, sec)
	}
	w.nextTrade = w.nTrades
	// Seed holdings: a few per account (the security stride can collide for
	// small scales, so de-duplicate keys up front).
	seen := make(map[uint64]struct{})
	for acct := 0; acct < w.nAcct; acct++ {
		for i := 0; i < 3; i++ {
			sec := (acct*13 + i*577) % w.nSec
			k := holdKey(acct, sec)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			mustInsert(m, pop, w.holding, []uint64{k}, mkRec(tpceHoldRec, k))
		}
	}
	m.Commit(pop)
}

func (w *tpce) insertTrade(txn *storage.Txn, id, acct, sec int) {
	rec := mkRec(tpceTradeRec, uint64(id))
	binary.LittleEndian.PutUint64(rec[8:], uint64(acct))
	binary.LittleEndian.PutUint64(rec[16:], uint64(sec))
	mustInsert(w.m, txn, w.trade, []uint64{uint64(id), acctTradeKey(acct, id)}, rec)
	if len(w.recentTrades) >= 512 {
		w.recentTrades = w.recentTrades[1:]
	}
	w.recentTrades = append(w.recentTrades, recentTrade{id: id, acct: acct, sec: sec})
}

// tradeStatus (19%, read-only): the customer's brokerage page — probe
// customer/account/broker, then the 20 most recent trades of the account.
func (w *tpce) tradeStatus(txn *storage.Txn) {
	m := w.m
	acct := w.rng.Intn(w.nAcct)
	_, arec, ok := m.IndexProbe(txn, w.account, w.account.Index(0), uint64(acct))
	if !ok {
		panic("tpce: account missing")
	}
	cust := binary.LittleEndian.Uint64(arec[8:])
	if _, _, ok := m.IndexProbe(txn, w.customer, w.customer.Index(0), cust); !ok {
		panic("tpce: customer missing")
	}
	m.IndexProbe(txn, w.broker, w.broker.Index(0), uint64(acct%tpceBrokers))
	m.IndexScan(txn, w.trade.Index(1), acctTradeKey(acct, 0), acctTradeKey(acct, 1<<28-1), true, true, 20)
}

// marketWatch (18%, read-only): the customer's watch list and each
// security's last trade.
func (w *tpce) marketWatch(txn *storage.Txn) {
	m := w.m
	cust := w.rng.Intn(w.nCust)
	items := m.IndexScan(txn, w.watch.Index(0), watchKey(cust, 0), watchKey(cust, 1<<12-1), true, true, 0)
	for _, it := range items {
		sec := it.Key & (1<<12 - 1)
		m.IndexProbe(txn, w.lastTrade, w.lastTrade.Index(0), sec)
	}
}

// securityDetail (14%, read-only): security master data, its company, last
// trade, and recent daily-market rows.
func (w *tpce) securityDetail(txn *storage.Txn) {
	m := w.m
	sec := w.rng.Intn(w.nSec)
	_, srec, ok := m.IndexProbe(txn, w.security, w.security.Index(0), uint64(sec))
	if !ok {
		panic("tpce: security missing")
	}
	comp := binary.LittleEndian.Uint64(srec[8:])
	m.IndexProbe(txn, w.company, w.company.Index(0), comp)
	m.IndexProbe(txn, w.lastTrade, w.lastTrade.Index(0), uint64(sec))
	m.IndexScan(txn, w.dailyMarket.Index(0), dmKey(sec, 10), dmKey(sec, 29), true, true, 0)
}

// customerPosition (13%, read-only): the customer's accounts, holdings, and
// marks-to-market.
func (w *tpce) customerPosition(txn *storage.Txn) {
	m := w.m
	cust := w.rng.Intn(w.nCust)
	if _, _, ok := m.IndexProbe(txn, w.customer, w.customer.Index(0), uint64(cust)); !ok {
		panic("tpce: customer missing")
	}
	for a := 0; a < tpceAcctsPer; a++ {
		acct := cust*tpceAcctsPer + a
		m.IndexProbe(txn, w.account, w.account.Index(0), uint64(acct))
		holds := m.IndexScan(txn, w.holding.Index(0), holdKey(acct, 0), holdKey(acct, 1<<12-1), true, true, 10)
		for _, h := range holds {
			sec := h.Key & (1<<12 - 1)
			m.IndexProbe(txn, w.lastTrade, w.lastTrade.Index(0), sec)
		}
	}
}

// tradeOrder (10.1%): place a trade — probes of account/customer/broker/
// security/last-trade, the indexed trade insert, and the account update. 1%
// of orders name an invalid security, exercising probe's not-found flag.
func (w *tpce) tradeOrder(txn *storage.Txn) {
	m := w.m
	acct := w.rng.Intn(w.nAcct)
	sec := w.rng.Intn(w.nSec)
	if w.rng.Intn(100) == 0 {
		sec = w.nSec + 3 // invalid security
	}
	arid, arec, ok := m.IndexProbe(txn, w.account, w.account.Index(0), uint64(acct))
	if !ok {
		panic("tpce: account missing")
	}
	cust := binary.LittleEndian.Uint64(arec[8:])
	m.IndexProbe(txn, w.customer, w.customer.Index(0), cust)
	m.IndexProbe(txn, w.broker, w.broker.Index(0), uint64(acct%tpceBrokers))
	if _, _, ok := m.IndexProbe(txn, w.security, w.security.Index(0), uint64(sec)); !ok {
		return // invalid security: order rejected before any write
	}
	m.IndexProbe(txn, w.lastTrade, w.lastTrade.Index(0), uint64(sec))

	id := w.nextTrade
	w.nextTrade++
	w.insertTrade(txn, id, acct, sec)
	bumpBalance(arec, 1)
	must(m.UpdateTuple(txn, w.account, arid, uint64(acct), arec))
}

// tradeResult (10%): settle a recent trade — update the trade row, update
// or create the holding (selling everything deletes it), update the
// account, and append an unindexed settlement row.
func (w *tpce) tradeResult(txn *storage.Txn) {
	m := w.m
	if len(w.recentTrades) == 0 {
		return
	}
	rt := w.recentTrades[w.rng.Intn(len(w.recentTrades))]
	trid, trec, ok := m.IndexProbe(txn, w.trade, w.trade.Index(0), uint64(rt.id))
	if !ok {
		return // already settled and pruned in a previous TradeResult
	}
	bumpBalance(trec, 2) // status → completed
	must(m.UpdateTuple(txn, w.trade, trid, uint64(rt.id), trec))

	hk := holdKey(rt.acct, rt.sec)
	hrid, hrec, ok := m.IndexProbe(txn, w.holding, w.holding.Index(0), hk)
	switch {
	case !ok:
		// New position.
		if _, err := m.InsertTuple(txn, w.holding, []uint64{hk}, mkRec(tpceHoldRec, hk)); err != nil {
			panic(err)
		}
	case w.rng.Intn(5) == 0:
		// Sold out: the holding row goes away.
		must(m.DeleteTuple(txn, w.holding, hrid, []uint64{hk}))
	default:
		bumpBalance(hrec, 10)
		must(m.UpdateTuple(txn, w.holding, hrid, hk, hrec))
	}

	arid, arec, ok := m.IndexProbe(txn, w.account, w.account.Index(0), uint64(rt.acct))
	if !ok {
		panic("tpce: account missing")
	}
	bumpBalance(arec, 100)
	must(m.UpdateTuple(txn, w.account, arid, uint64(rt.acct), arec))
	if _, err := m.InsertTuple(txn, w.settlement, nil, mkRec(tpceSettRec, uint64(rt.id))); err != nil {
		panic(err)
	}
}

// tradeLookup (8%, read-only): a page of the account's trade history plus
// detail probes of the first few.
func (w *tpce) tradeLookup(txn *storage.Txn) {
	m := w.m
	acct := w.rng.Intn(w.nAcct)
	trades := m.IndexScan(txn, w.trade.Index(1), acctTradeKey(acct, 0), acctTradeKey(acct, 1<<28-1), true, true, 20)
	for i, tr := range trades {
		if i >= 5 {
			break
		}
		m.IndexProbe(txn, w.trade, w.trade.Index(0), tr.Key&(1<<28-1))
	}
}

// tradeUpdate (2%): amend a few trades of an account.
func (w *tpce) tradeUpdate(txn *storage.Txn) {
	m := w.m
	acct := w.rng.Intn(w.nAcct)
	trades := m.IndexScan(txn, w.trade.Index(1), acctTradeKey(acct, 0), acctTradeKey(acct, 1<<28-1), true, true, 20)
	for i, tr := range trades {
		if i >= 3 {
			break
		}
		id := tr.Key & (1<<28 - 1)
		trid, trec, ok := m.IndexProbe(txn, w.trade, w.trade.Index(0), id)
		if !ok {
			continue
		}
		bumpBalance(trec, 1)
		must(m.UpdateTuple(txn, w.trade, trid, id, trec))
	}
}

// brokerVolume (4.9%, read-only): broker probe plus market aggregates over
// a handful of securities.
func (w *tpce) brokerVolume(txn *storage.Txn) {
	m := w.m
	m.IndexProbe(txn, w.broker, w.broker.Index(0), uint64(w.rng.Intn(tpceBrokers)))
	for i := 0; i < 5; i++ {
		sec := w.rng.Intn(w.nSec)
		m.IndexProbe(txn, w.security, w.security.Index(0), uint64(sec))
		m.IndexScan(txn, w.dailyMarket.Index(0), dmKey(sec, 25), dmKey(sec, 29), true, true, 0)
	}
}

// marketFeed (1%): the ticker — update last_trade for a burst of
// securities.
func (w *tpce) marketFeed(txn *storage.Txn) {
	m := w.m
	for i := 0; i < 10; i++ {
		sec := uint64(w.rng.Intn(w.nSec))
		ltrid, ltrec, ok := m.IndexProbe(txn, w.lastTrade, w.lastTrade.Index(0), sec)
		if !ok {
			panic("tpce: last_trade missing")
		}
		bumpBalance(ltrec, 1)
		must(m.UpdateTuple(txn, w.lastTrade, ltrid, sec, ltrec))
	}
}
