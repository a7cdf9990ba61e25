package workload

import (
	"encoding/binary"
	"math/rand"

	"addict/internal/codemap"
	"addict/internal/storage"
)

// TPC-B: the classic bank benchmark. One transaction type, AccountUpdate:
// read and update an account, its teller, and its branch, then append a row
// to the unindexed History table — the paper's running example for the
// rarely-taken allocate-page path ("only six AccountUpdate instances out of
// the 1000 require this routine", Section 2.2.1).
const (
	tpcbBranches     = 16
	tpcbTellersPerBr = 10
	tpcbAccountsPer  = 10000

	tpcbAccountRec = 100
	tpcbTellerRec  = 100
	tpcbBranchRec  = 100
	tpcbHistoryRec = 50
)

type tpcb struct {
	m        *storage.Manager
	rng      *rand.Rand
	branch   *storage.Table
	teller   *storage.Table
	account  *storage.Table
	history  *storage.Table
	nBranch  int
	nTeller  int
	nAccount int
}

// NewTPCB builds and populates a TPC-B database and returns its benchmark.
// scale 1.0 ≈ 160k accounts; the experiments use scale 1.0.
func NewTPCB(seed int64, scale float64) *Benchmark {
	rng := rand.New(rand.NewSource(seed))
	m := storage.NewManager(codemap.NewLayout())
	w := &tpcb{
		m:        m,
		rng:      rng,
		nBranch:  scaled(tpcbBranches, scale),
		nTeller:  scaled(tpcbBranches*tpcbTellersPerBr, scale),
		nAccount: scaled(tpcbBranches*tpcbAccountsPer, scale),
	}
	w.branch = m.CreateTable("branch")
	w.branch.CreateIndex("branch_pk")
	w.teller = m.CreateTable("teller")
	w.teller.CreateIndex("teller_pk")
	w.account = m.CreateTable("account")
	w.account.CreateIndex("account_pk")
	w.history = m.CreateTable("history") // no index, per spec

	pop := m.BeginLoad()
	for i := 0; i < w.nBranch; i++ {
		mustInsert(m, pop, w.branch, []uint64{uint64(i)}, mkRec(tpcbBranchRec, uint64(i)))
	}
	for i := 0; i < w.nTeller; i++ {
		mustInsert(m, pop, w.teller, []uint64{uint64(i)}, mkRec(tpcbTellerRec, uint64(i)))
	}
	for i := 0; i < w.nAccount; i++ {
		mustInsert(m, pop, w.account, []uint64{uint64(i)}, mkRec(tpcbAccountRec, uint64(i)))
	}
	m.Commit(pop)

	return newBenchmark("TPC-B", m, rng, []TxnSpec{
		{Name: "AccountUpdate", Weight: 1.0, Run: w.accountUpdate},
	})
}

// accountUpdate is the TPC-B transaction: probe + update account, teller,
// and branch; insert a history row.
func (w *tpcb) accountUpdate(txn *storage.Txn) {
	m := w.m
	aid := uint64(w.rng.Intn(w.nAccount))
	tid := uint64(w.rng.Intn(w.nTeller))
	bid := uint64(w.rng.Intn(w.nBranch))
	delta := uint64(w.rng.Intn(1999999)) // the +/-999999 delta of the spec

	arid, arec, ok := m.IndexProbe(txn, w.account, w.account.Index(0), aid)
	if !ok {
		panic("tpcb: account vanished")
	}
	bumpBalance(arec, delta)
	must(m.UpdateTuple(txn, w.account, arid, aid, arec))

	trid, trec, ok := m.IndexProbe(txn, w.teller, w.teller.Index(0), tid)
	if !ok {
		panic("tpcb: teller vanished")
	}
	bumpBalance(trec, delta)
	must(m.UpdateTuple(txn, w.teller, trid, tid, trec))

	brid, brec, ok := m.IndexProbe(txn, w.branch, w.branch.Index(0), bid)
	if !ok {
		panic("tpcb: branch vanished")
	}
	bumpBalance(brec, delta)
	must(m.UpdateTuple(txn, w.branch, brid, bid, brec))

	hist := mkRec(tpcbHistoryRec, aid)
	binary.LittleEndian.PutUint64(hist[8:], tid)
	binary.LittleEndian.PutUint64(hist[16:], bid)
	if _, err := m.InsertTuple(txn, w.history, nil, hist); err != nil {
		panic(err)
	}
}

// mkRec builds a record of the given size with the key stamped at offset 0.
func mkRec(size int, key uint64) []byte {
	rec := make([]byte, size)
	binary.LittleEndian.PutUint64(rec, key)
	return rec
}

// bumpBalance adds delta to the balance field (offset 24) in place.
func bumpBalance(rec []byte, delta uint64) {
	bal := binary.LittleEndian.Uint64(rec[24:])
	binary.LittleEndian.PutUint64(rec[24:], bal+delta)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
