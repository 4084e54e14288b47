package pmdk

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
)

// OID is a persistent pointer: an offset from the pool base (libpmemobj's
// object ID). Unlike a virtual address it stays valid across restarts.
type OID uint64

// NilOID is the null persistent pointer.
const NilOID OID = 0

// Pool is a functional libpmemobj-like object store over a memory bank.
// Objects are word arrays addressed by OID; a designated root object anchors
// application data structures; undo-log transactions make multi-word
// updates crash-atomic. When the bank is persistent (OC-PMEM) the pool
// survives power loss; over DRAM it vanishes — exactly the distinction the
// paper's Figure 3 workflow navigates.
type Pool struct {
	bank *kernel.Bank
}

// Layout of pool metadata inside the bank.
const (
	poolMagicAddr = 0xA0_0000_0000
	poolNextAddr  = poolMagicAddr + 8
	poolRootAddr  = poolMagicAddr + 16
	poolTxAddr    = poolMagicAddr + 24 // tx state word
	poolTxLenAddr = poolMagicAddr + 32
	poolLogBase   = 0xA1_0000_0000 // undo log records
	poolHeapBase  = 0xA2_0000_0000
	poolMagic     = 0x706D656D706F6F6C // "pmempool"
)

// Transaction states.
const (
	txIdle   = 0
	txActive = 1
)

// ErrTxActive is returned when an operation requires no open transaction.
var ErrTxActive = errors.New("pmdk: transaction already active")

// ErrNoTx is returned when commit/abort is called without a transaction.
var ErrNoTx = errors.New("pmdk: no active transaction")

// Open attaches to (or initializes) a pool in the bank. Reopening an
// existing pool — e.g. after a power cycle on a persistent bank — first
// rolls back any interrupted transaction using the undo log.
func Open(bank *kernel.Bank) *Pool {
	p := &Pool{bank: bank}
	if bank.Read(poolMagicAddr) != poolMagic {
		bank.Write(poolMagicAddr, poolMagic)
		bank.Write(poolNextAddr, poolHeapBase)
		bank.Write(poolRootAddr, uint64(NilOID))
		bank.Write(poolTxAddr, txIdle)
		bank.Write(poolTxLenAddr, 0)
		return p
	}
	p.recover()
	return p
}

// Attach wraps an already-initialized pool in the bank without running
// recovery. Platform forks use it: the source may hold a deliberately open
// transaction whose undo log must survive into the fork exactly as-is —
// Open's rollback would change what a subsequent crash observes. The bank
// must contain a pool (Open ran on it, or on the bank it was cloned from).
func Attach(bank *kernel.Bank) *Pool {
	if bank.Read(poolMagicAddr) != poolMagic {
		panic("pmdk: Attach on a bank with no initialized pool")
	}
	return &Pool{bank: bank}
}

// recover rolls back an interrupted transaction (crash between TxBegin and
// TxCommit): undo records are applied newest-first, then the log is
// discarded.
func (p *Pool) recover() {
	if p.bank.Read(poolTxAddr) != txActive {
		return
	}
	n := p.bank.Read(poolTxLenAddr)
	for i := int64(n) - 1; i >= 0; i-- {
		rec := poolLogBase + uint64(i)*16
		addr := p.bank.Read(rec)
		old := p.bank.Read(rec + 8)
		p.bank.Write(addr, old)
	}
	p.bank.Write(poolTxLenAddr, 0)
	p.bank.Write(poolTxAddr, txIdle)
}

// Alloc reserves an object of n words and returns its OID. The first word
// is an object header holding the size.
func (p *Pool) Alloc(n int) OID {
	if n <= 0 {
		panic("pmdk: Alloc of non-positive size")
	}
	next := p.bank.Read(poolNextAddr)
	oid := OID(next)
	p.bank.Write(next, uint64(n)) // header
	p.bank.Write(poolNextAddr, next+uint64(n+1)*8)
	return oid
}

// Size reports an object's word count.
func (p *Pool) Size(oid OID) int { return int(p.bank.Read(uint64(oid))) }

func (p *Pool) wordAddr(oid OID, idx int) uint64 {
	size := p.Size(oid)
	if idx < 0 || idx >= size {
		panic(fmt.Sprintf("pmdk: index %d out of object size %d", idx, size))
	}
	return uint64(oid) + uint64(idx+1)*8
}

// logUndo appends one undo record — the prior value at addr — to the
// transaction log and bumps the record count. This is the pool's
// journal-append primitive: recovery replays these records newest-first,
// so it must run before the store it covers.
//
//lightpc:journalappend
func (p *Pool) logUndo(addr uint64) {
	n := p.bank.Read(poolTxLenAddr)
	rec := poolLogBase + n*16
	p.bank.Write(rec, addr)
	p.bank.Write(rec+8, p.bank.Read(addr))
	p.bank.Write(poolTxLenAddr, n+1)
}

// Set stores a word into an object; inside a transaction the old value is
// undo-logged first.
func (p *Pool) Set(oid OID, idx int, val uint64) {
	addr := p.wordAddr(oid, idx)
	if p.bank.Read(poolTxAddr) == txActive {
		p.logUndo(addr)
	}
	p.bank.Write(addr, val)
}

// Get loads a word from an object.
func (p *Pool) Get(oid OID, idx int) uint64 {
	return p.bank.Read(p.wordAddr(oid, idx))
}

// SetRoot anchors the root object (the entry point every restart begins
// from, Figure 3b).
func (p *Pool) SetRoot(oid OID) { p.bank.Write(poolRootAddr, uint64(oid)) }

// Root reads the root OID.
func (p *Pool) Root() OID { return OID(p.bank.Read(poolRootAddr)) }

// TxBegin opens an undo-logged transaction (TX_BEGIN).
func (p *Pool) TxBegin() error {
	if p.bank.Read(poolTxAddr) == txActive {
		return ErrTxActive
	}
	p.bank.Write(poolTxLenAddr, 0)
	p.bank.Write(poolTxAddr, txActive)
	return nil
}

// TxCommit makes the transaction's changes durable and discards the log
// (TX_END).
//
//lightpc:commitpoint
func (p *Pool) TxCommit() error {
	if p.bank.Read(poolTxAddr) != txActive {
		return ErrNoTx
	}
	p.bank.Write(poolTxLenAddr, 0)
	p.bank.Write(poolTxAddr, txIdle)
	return nil
}

// InTx reports whether a transaction is open.
func (p *Pool) InTx() bool { return p.bank.Read(poolTxAddr) == txActive }
