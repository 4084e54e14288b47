// Package elsewhere is outside the strictness table: its Commit (a database
// transaction, say) is not the EP-cut protocol and needs no annotation.
package elsewhere

type tx struct{}

func (t *tx) Commit() {}

func Use(t *tx) { t.Commit() }
