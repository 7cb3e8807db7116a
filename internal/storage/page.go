// Package storage is the paged storage engine underneath the SQL engine:
// 8 KiB slotted pages, a pluggable page store (memory or file backed), a
// buffer pool with LRU eviction, heap files for table rows, a write-ahead
// log with physical redo records and logical index records (the split that
// creates the §4.5 recovery problem for encrypted indexes), a row lock
// manager supporting deferred transactions, and a version store implementing
// constant-time recovery (CTR).
//
// This package never interprets cell contents: rows move through it as
// opaque bytes, which is the architectural observation of §3 — most of a
// database engine only moves or copies values and is unaffected by whether
// they are encrypted.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed page size, matching SQL Server's 8 KiB pages.
const PageSize = 8192

// PageID identifies a page within a store. Page 0 is reserved as invalid.
type PageID uint32

// InvalidPageID marks "no page" in links and headers.
const InvalidPageID PageID = 0

// Page layout:
//
//	offset 0:  pageID   uint32
//	offset 4:  pageType uint8
//	offset 5:  reserved uint8
//	offset 6:  slotCount uint16
//	offset 8:  freeStart uint16 (start of free space; records grow up)
//	offset 10: freeEnd   uint16 (end of free space; slot dir grows down)
//	offset 12: next      uint32 (chain link: heap next page / btree sibling)
//	offset 16: payload
//
// The slot directory lives at the end of the page, 4 bytes per slot:
// {offset uint16, length uint16}; a deleted slot has offset 0xFFFF.
const (
	pageHeaderSize = 16
	slotEntrySize  = 4
	deletedOffset  = 0xFFFF
)

// Page type tags.
const (
	PageTypeFree uint8 = iota
	PageTypeHeap
	PageTypeBTreeLeaf
	PageTypeBTreeInner
	PageTypeMeta
)

// Page is an 8 KiB slotted page. Methods do not lock; callers hold the
// owning latch (buffer pool frame or table mutex).
type Page struct {
	buf [PageSize]byte
}

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("storage: page full")
	ErrBadSlot     = errors.New("storage: invalid slot")
	ErrRecordSize  = errors.New("storage: record too large for a page")
	ErrSlotDeleted = errors.New("storage: slot deleted")
)

// MaxRecordSize is the largest record a single page can hold.
const MaxRecordSize = PageSize - pageHeaderSize - slotEntrySize

// Init formats the page in place.
func (p *Page) Init(id PageID, pageType uint8) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint32(p.buf[0:], uint32(id))
	p.buf[4] = pageType
	p.setSlotCount(0)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(PageSize)
	p.SetNext(InvalidPageID)
}

// ID returns the page id stored in the header.
func (p *Page) ID() PageID { return PageID(binary.LittleEndian.Uint32(p.buf[0:])) }

// Type returns the page type tag.
func (p *Page) Type() uint8 { return p.buf[4] }

// Next returns the chain link.
func (p *Page) Next() PageID { return PageID(binary.LittleEndian.Uint32(p.buf[12:])) }

// SetNext updates the chain link.
func (p *Page) SetNext(id PageID) { binary.LittleEndian.PutUint32(p.buf[12:], uint32(id)) }

// SlotCount returns the size of the slot directory, including deleted slots.
func (p *Page) SlotCount() int { return int(binary.LittleEndian.Uint16(p.buf[6:])) }

func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[6:], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[8:])) }
func (p *Page) setFreeStart(v int) { binary.LittleEndian.PutUint16(p.buf[8:], uint16(v)) }
func (p *Page) freeEnd() int       { return int(binary.LittleEndian.Uint16(p.buf[10:])) }
func (p *Page) setFreeEnd(v int)   { binary.LittleEndian.PutUint16(p.buf[10:], uint16(v)) }

func (p *Page) slotEntry(i int) (off, length int) {
	base := PageSize - (i+1)*slotEntrySize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlotEntry(i, off, length int) {
	base := PageSize - (i+1)*slotEntrySize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// FreeSpace reports the bytes available for a new record (including its
// slot directory entry).
func (p *Page) FreeSpace() int {
	free := p.freeEnd() - p.freeStart() - p.SlotCount()*slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// HasRoomFor reports whether a record of n bytes fits (possibly after
// compaction).
func (p *Page) HasRoomFor(n int) bool {
	return p.FreeSpace() >= n+slotEntrySize
}

// Insert places a record and returns its slot number. Reuses deleted slots.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, ErrRecordSize
	}
	if !p.HasRoomFor(len(rec)) {
		// Contiguous space is exhausted but tombstoned records may be
		// reclaimable; compact and re-check.
		p.compact()
		if !p.HasRoomFor(len(rec)) {
			return 0, ErrPageFull
		}
	}
	// Slots are never reused by Insert: tombstoned slots stay reserved so
	// RowIDs remain stable for physical undo (InsertAt restores them).
	slot := p.SlotCount()
	if p.freeEnd()-p.freeStart()-p.SlotCount()*slotEntrySize-slotEntrySize < len(rec) {
		p.compact()
	}
	off := p.freeStart()
	copy(p.buf[off:], rec)
	p.setFreeStart(off + len(rec))
	p.setSlotCount(slot + 1)
	p.setSlotEntry(slot, off, len(rec))
	return slot, nil
}

// InsertAt restores a record into a specific slot — the physical-undo path
// for deletes. The slot must be tombstoned (or one past the end).
func (p *Page) InsertAt(slot int, rec []byte) error {
	if len(rec) > MaxRecordSize {
		return ErrRecordSize
	}
	switch {
	case slot >= 0 && slot < p.SlotCount():
		if off, _ := p.slotEntry(slot); off != deletedOffset {
			return fmt.Errorf("%w: slot %d occupied", ErrBadSlot, slot)
		}
	case slot == p.SlotCount():
		// Extending by one slot.
	default:
		return fmt.Errorf("%w: slot %d out of range", ErrBadSlot, slot)
	}
	need := len(rec)
	if slot == p.SlotCount() {
		need += slotEntrySize
	}
	if p.freeEnd()-p.freeStart()-p.SlotCount()*slotEntrySize < need {
		p.compact()
		if p.freeEnd()-p.freeStart()-p.SlotCount()*slotEntrySize < need {
			return ErrPageFull
		}
	}
	off := p.freeStart()
	copy(p.buf[off:], rec)
	p.setFreeStart(off + len(rec))
	if slot == p.SlotCount() {
		p.setSlotCount(slot + 1)
	}
	p.setSlotEntry(slot, off, len(rec))
	return nil
}

// Read returns the record in slot i. The slice aliases page memory; callers
// copy if they retain it past the page latch.
func (p *Page) Read(i int) ([]byte, error) {
	if i < 0 || i >= p.SlotCount() {
		return nil, ErrBadSlot
	}
	off, length := p.slotEntry(i)
	if off == deletedOffset {
		return nil, ErrSlotDeleted
	}
	return p.buf[off : off+length], nil
}

// Delete tombstones slot i. Space is reclaimed lazily by compaction.
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.SlotCount() {
		return ErrBadSlot
	}
	off, _ := p.slotEntry(i)
	if off == deletedOffset {
		return ErrSlotDeleted
	}
	p.setSlotEntry(i, deletedOffset, 0)
	return nil
}

// Update replaces slot i in place if the new record fits in the page,
// otherwise returns ErrPageFull and the caller relocates the row.
func (p *Page) Update(i int, rec []byte) error {
	if i < 0 || i >= p.SlotCount() {
		return ErrBadSlot
	}
	off, length := p.slotEntry(i)
	if off == deletedOffset {
		return ErrSlotDeleted
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlotEntry(i, off, len(rec))
		return nil
	}
	// Try appending a fresh copy of the record.
	if p.freeEnd()-p.freeStart()-p.SlotCount()*slotEntrySize < len(rec) {
		// Tombstone first so compaction reclaims the old copy, but remember
		// the entry in case the update still doesn't fit.
		p.setSlotEntry(i, deletedOffset, 0)
		p.compact()
		if p.freeEnd()-p.freeStart()-p.SlotCount()*slotEntrySize < len(rec) {
			p.setSlotEntry(i, off, length) // restore; caller relocates
			return ErrPageFull
		}
	} else {
		p.setSlotEntry(i, deletedOffset, 0)
	}
	newOff := p.freeStart()
	copy(p.buf[newOff:], rec)
	p.setFreeStart(newOff + len(rec))
	p.setSlotEntry(i, newOff, len(rec))
	return nil
}

// compact rewrites live records contiguously, dropping dead space.
func (p *Page) compact() {
	var scratch [PageSize]byte
	w := pageHeaderSize
	for i := 0; i < p.SlotCount(); i++ {
		off, length := p.slotEntry(i)
		if off == deletedOffset {
			continue
		}
		copy(scratch[w:], p.buf[off:off+length])
		p.setSlotEntry(i, w, length)
		w += length
	}
	copy(p.buf[pageHeaderSize:w], scratch[pageHeaderSize:w])
	p.setFreeStart(w)
}

// Bytes exposes the raw page for the store and WAL.
func (p *Page) Bytes() []byte { return p.buf[:] }

// LiveSlots iterates the non-deleted slot numbers in order.
func (p *Page) LiveSlots() []int {
	out := make([]int, 0, p.SlotCount())
	for i := 0; i < p.SlotCount(); i++ {
		if off, _ := p.slotEntry(i); off != deletedOffset {
			out = append(out, i)
		}
	}
	return out
}

// RowID addresses a record: page id in the high 48 bits, slot in the low 16.
type RowID uint64

// NewRowID composes a RowID.
func NewRowID(page PageID, slot int) RowID {
	return RowID(uint64(page)<<16 | uint64(uint16(slot)))
}

// Page returns the page component.
func (r RowID) Page() PageID { return PageID(r >> 16) }

// Slot returns the slot component.
func (r RowID) Slot() int { return int(uint16(r)) }

func (r RowID) String() string { return fmt.Sprintf("(%d:%d)", r.Page(), r.Slot()) }
