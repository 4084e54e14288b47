package analysis

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is a serializable observation an analyzer attaches to a
// package-level function (or method) so that analyses of *importing*
// packages can see through the call: "this function carries the zeroalloc
// contract", "this function is transitively impure", "this function mutates
// persistent state". The design is the ObjectFact subset of
// golang.org/x/tools/go/analysis, restated over JSON so the unitchecker
// driver can persist facts in the .vetx files cmd/go already threads from
// dependency to dependent.
//
// Fact types must be JSON-(de)serializable structs; the dynamic type of the
// fact (its struct name) is part of the key, so one analyzer may export
// several fact kinds on the same object.
type Fact interface {
	// AFact marks the type as a fact. It is never called.
	AFact()
}

// factKey names one exported fact: which analyzer produced it, the object
// it decorates ("pkgpath".FuncName or "pkgpath".Recv.Method), and the fact
// type's name.
type factKey struct {
	Analyzer string `json:"a"`
	Object   string `json:"o"`
	Type     string `json:"t"`
}

// factRecord is the serialized form of one fact.
type factRecord struct {
	Key   factKey         `json:"k"`
	Value json.RawMessage `json:"v"`
}

// FactStore holds the facts visible to one analysis unit: everything
// imported from dependency .vetx files plus everything exported while
// analyzing the current package. Encoding a store produces the union, which
// is exactly what the next unit up the import graph must see — that re-export
// is what makes facts *transitive* even though cmd/go only hands each unit
// the .vetx files of its direct imports.
type FactStore struct {
	facts map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{facts: make(map[factKey]json.RawMessage)} }

// ObjectKey renders the stable cross-package name for a function or method:
// "pkgpath".Name for package-level functions, "pkgpath".Recv.Name for
// methods (pointer receivers are dereferenced, so (*T).M and (T).M share a
// key). It returns "" for objects facts cannot decorate: locals, closures,
// interface methods, and anything without a package.
func ObjectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	name := fn.Name()
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // interface or weird receiver: not fact-addressable
		}
		name = named.Obj().Name() + "." + name
	} else if fn.Parent() != nil && fn.Parent() != fn.Pkg().Scope() {
		return "" // local function object
	}
	return fn.Pkg().Path() + "\x00" + name
}

// factTypeName derives the stable per-type key component from a fact's
// dynamic type (pointer indirection stripped, package path dropped).
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// Export records a fact on obj for the named analyzer. It reports false
// when obj is not fact-addressable (locals, closures, interface methods).
func (s *FactStore) Export(analyzer string, obj types.Object, fact Fact) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	raw, err := json.Marshal(fact)
	if err != nil {
		return false
	}
	s.facts[factKey{analyzer, key, factTypeName(fact)}] = raw
	return true
}

// Import looks up a fact of fact's dynamic type on obj for the named
// analyzer and, when present, decodes it into fact (which must be a
// pointer). It reports whether the fact existed.
func (s *FactStore) Import(analyzer string, obj types.Object, fact Fact) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	raw, ok := s.facts[factKey{analyzer, key, factTypeName(fact)}]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, fact) == nil
}

// Has reports whether any fact of the given type name exists on the object
// key (used by tests and debugging dumps).
func (s *FactStore) Has(analyzer, objectKey, typeName string) bool {
	_, ok := s.facts[factKey{analyzer, objectKey, typeName}]
	return ok
}

// Len reports the number of stored facts.
func (s *FactStore) Len() int { return len(s.facts) }

// Encode serializes every fact, sorted for determinism. The result is the
// content of a .vetx file.
func (s *FactStore) Encode() []byte {
	recs := make([]factRecord, 0, len(s.facts))
	//lint:allow determinism records are sorted deterministically just below
	for k, v := range s.facts {
		recs = append(recs, factRecord{Key: k, Value: v})
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Key, recs[j].Key
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	out, err := json.Marshal(recs)
	if err != nil {
		return []byte("[]")
	}
	return out
}

// Decode merges the facts serialized in data into the store. Unreadable or
// empty data is treated as "no facts" — a dependency outside the module
// writes an empty .vetx and that must not fail the importing unit.
func (s *FactStore) Decode(data []byte) {
	if len(data) == 0 {
		return
	}
	var recs []factRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return
	}
	for _, r := range recs {
		s.facts[r.Key] = r.Value
	}
}

// ExportObjectFact records fact on obj under the running analyzer's name.
// It is a no-op (reporting false) when the pass has no fact store, so
// purely syntactic analyzers keep working under fact-unaware drivers.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil || obj == nil {
		return false
	}
	return p.Facts.Export(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact decodes the running analyzer's fact on obj into fact,
// reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil || obj == nil {
		return false
	}
	return p.Facts.Import(p.Analyzer.Name, obj, fact)
}

// annotationPrefix introduces the repository's function-contract markers:
//
//	//lightpc:zeroalloc   this function must not allocate (zeroalloc)
//	//lightpc:pure        trusted determinism assertion (determinism)
//	//lightpc:journalappend   this function IS the journal append (persistorder)
//	//lightpc:commitpoint     this function IS the commit point (persistorder)
const annotationPrefix = "lightpc:"

// HasAnnotation reports whether the function declaration's doc comment
// carries the named //lightpc: marker on a line of its own.
func HasAnnotation(decl *ast.FuncDecl, name string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, annotationPrefix) {
			continue
		}
		marker := strings.TrimPrefix(text, annotationPrefix)
		// Allow trailing explanation after whitespace.
		if marker == name || strings.HasPrefix(marker, name+" ") {
			return true
		}
	}
	return false
}
