package storage

import "fmt"

// Table is a heap of slotted data pages plus any number of B+tree indexes.
// Indexes are keyed by caller-encoded uint64 keys (composite TPC keys are
// bit-packed by the workload definitions).
type Table struct {
	m       *Manager
	name    string
	id      uint32
	pages   []PageID
	cur     PageID // current insertion target
	indexes []*BTree
	rows    uint64
}

// CreateTable registers a table with one initial data page.
func (m *Manager) CreateTable(name string) *Table {
	if _, dup := m.byName[name]; dup {
		panic(fmt.Sprintf("storage: table %q already exists", name))
	}
	t := &Table{m: m, name: name, id: uint32(len(m.tables) + 1)}
	pid := m.allocPage()
	m.bp.install(m, &frame{pid: pid, page: newPage(pid, t.id)})
	t.pages = append(t.pages, pid)
	t.cur = pid
	m.tables = append(m.tables, t)
	m.byName[name] = t
	return t
}

// CreateIndex attaches a new (empty) B+tree to the table. Indexes must be
// created before rows are inserted; the reproduction has no index build.
func (t *Table) CreateIndex(name string) *BTree {
	if t.rows > 0 {
		panic(fmt.Sprintf("storage: cannot add index %q to non-empty table %q", name, t.name))
	}
	if _, dup := t.m.idxNames[name]; dup {
		panic(fmt.Sprintf("storage: index %q already exists", name))
	}
	idx := newBTree(t.m, name, uint32(len(t.m.indexes)+1))
	t.m.indexes = append(t.m.indexes, idx)
	t.m.idxNames[name] = idx
	t.indexes = append(t.indexes, idx)
	return idx
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// ID returns the table's lock-space identifier.
func (t *Table) ID() uint32 { return t.id }

// Rows returns the number of live rows.
func (t *Table) Rows() uint64 { return t.rows }

// Indexes returns the table's indexes in creation order.
func (t *Table) Indexes() []*BTree { return t.indexes }

// Index returns the i-th index (0 = primary).
func (t *Table) Index(i int) *BTree { return t.indexes[i] }

// catalogAddr is the table's catalog metadata block — read by every insert
// (free-space lookup) and part of the small common data set.
func (t *Table) catalogAddr() uint64 { return MetaBase + uint64(t.id)*64 }

// page returns a pinned data-page frame via the instrumented buffer pool.
func (t *Table) page(pid PageID) *frame {
	f := t.m.bp.find(t.m, pid)
	if f.page == nil {
		panic(fmt.Sprintf("storage: page %d of table %q is not a data page", pid, t.name))
	}
	return f
}
