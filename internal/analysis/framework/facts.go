package framework

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a datum an analyzer attaches to a types.Object (a function, a
// struct field, …) while analyzing the package that can observe it, for
// consumption by the same analyzer's pass over a downstream package.
// Mirrors go/analysis: fact types must be pointers and must be
// registered in the Analyzer's FactTypes.
type Fact interface {
	// AFact is a marker method; it does nothing.
	AFact()
}

type factKey struct {
	obj types.Object
	t   reflect.Type
}

// ExportObjectFact attaches fact to obj for downstream passes. The
// dynamic type of fact must be a pointer registered in the analyzer's
// FactTypes; exporting twice for the same (object, type) overwrites.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic(fmt.Sprintf("%s: ExportObjectFact with nil object", p.Analyzer.Name))
	}
	p.checkFactType(fact)
	p.Prog.facts[factKey{obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies into fact the fact of fact's type previously
// exported for obj, reporting whether one existed. fact must be a
// pointer of a registered fact type.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	p.checkFactType(fact)
	stored, ok := p.Prog.facts[factKey{obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// checkFactType enforces the go/analysis fact contract: a pointer type
// declared in the analyzer's FactTypes.
func (p *Pass) checkFactType(fact Fact) {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("%s: fact type %T is not a pointer", p.Analyzer.Name, fact))
	}
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not registered in FactTypes", p.Analyzer.Name, fact))
}
