// Package wordtab stubs the word table the journal keeps its images in.
package wordtab

// Table maps keys to words.
type Table struct{ words []uint64 }

// Set stores a word.
func (t *Table) Set(k, v uint64) { t.words = append(t.words, k, v) }

// Delete removes a word.
func (t *Table) Delete(k uint64) {}
