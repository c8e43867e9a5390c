package sparql

import (
	"math/rand"
	"testing"

	"mdw/internal/rdf"
)

// evalExpr parses and evaluates a standalone filter expression against a
// binding.
func evalExpr(t *testing.T, expr string, b Binding) (Value, error) {
	t.Helper()
	toks, err := lex(expr)
	if err != nil {
		t.Fatalf("lex %q: %v", expr, err)
	}
	p := &qparser{toks: toks, prefixes: map[string]string{}}
	e, err := p.filterExpr()
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return e.Eval(b)
}

func truth(t *testing.T, expr string, b Binding) bool {
	t.Helper()
	v, err := evalExpr(t, expr, b)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	out, err := v.Truth()
	if err != nil {
		t.Fatalf("truth %q: %v", expr, err)
	}
	return out
}

func TestTruthConversions(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want bool
	}{
		{rdf.TypedLiteral("true", rdf.XSDBoolean), true},
		{rdf.TypedLiteral("false", rdf.XSDBoolean), false},
		{rdf.TypedLiteral("1", rdf.XSDBoolean), true},
		{rdf.Integer(0), false},
		{rdf.Integer(7), true},
		{rdf.TypedLiteral("0.0", rdf.XSDDouble), false},
		{rdf.TypedLiteral("2.5", rdf.XSDDecimal), true},
		{rdf.Literal(""), false},
		{rdf.Literal("x"), true},
	}
	for _, tc := range cases {
		got, err := Value{Term: tc.term}.Truth()
		if err != nil {
			t.Errorf("Truth(%v): %v", tc.term, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Truth(%v) = %v, want %v", tc.term, got, tc.want)
		}
	}
	// No EBV for IRIs, non-numeric typed literals.
	if _, err := (Value{Term: rdf.IRI("http://x")}).Truth(); err == nil {
		t.Error("IRI should have no EBV")
	}
	if _, err := (Value{Term: rdf.TypedLiteral("zzz", rdf.XSDInteger)}).Truth(); err == nil {
		t.Error("malformed number should error")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	b := Binding{"x": rdf.Integer(1)}
	// An error on one side of || is absorbed when the other side is true.
	if !truth(t, "?x = 1 || ?unbound = 2", b) {
		t.Error("true || error should be true")
	}
	if !truth(t, "?unbound = 2 || ?x = 1", b) {
		t.Error("error || true should be true")
	}
	// An error on one side of && is absorbed when the other side is false.
	if truth(t, "?x = 2 && ?unbound = 1", b) {
		t.Error("false && error should be false")
	}
	if truth(t, "?unbound = 1 && ?x = 2", b) {
		t.Error("error && false should be false")
	}
	// error && true stays an error.
	if _, err := evalExpr(t, "?unbound = 1 && ?x = 1", b); err == nil {
		t.Error("error && true should propagate the error")
	}
	if _, err := evalExpr(t, "?unbound = 1 || ?x = 2", b); err == nil {
		t.Error("error || false should propagate the error")
	}
}

func TestComparisonOperators(t *testing.T) {
	b := Binding{
		"i": rdf.Integer(10),
		"j": rdf.Integer(3),
		"s": rdf.Literal("abc"),
		"t": rdf.Literal("abd"),
		"u": rdf.IRI("http://t/a"),
		"v": rdf.IRI("http://t/a"),
	}
	checks := map[string]bool{
		"?i > ?j":   true,
		"?i >= ?j":  true,
		"?i < ?j":   false,
		"?i <= ?j":  false,
		"?i != ?j":  true,
		"?i = 10":   true,
		"?s < ?t":   true,
		"?s != ?t":  true,
		"?u = ?v":   true,
		"!(?i > 5)": false,
		"TRUE":      true,
		"FALSE":     false,
	}
	for expr, want := range checks {
		if got := truth(t, expr, b); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
	// Mixed-kind comparison with ordering operators errors.
	if _, err := evalExpr(t, "?s < ?u", b); err == nil {
		t.Error("ordering literal vs IRI should error")
	}
	// Equality across kinds falls back to term identity.
	if truth(t, "?s = ?u", b) {
		t.Error("literal should not equal IRI")
	}
	if !truth(t, "?s != ?u", b) {
		t.Error("literal != IRI should hold")
	}
}

func TestBooleanComparison(t *testing.T) {
	b := Binding{"x": rdf.Integer(1)}
	if !truth(t, "BOUND(?x) = TRUE", b) {
		t.Error("BOUND comparison failed")
	}
	if truth(t, "BOUND(?y) = TRUE", b) {
		t.Error("unbound should compare false")
	}
	if _, err := evalExpr(t, "BOUND(?x) > TRUE", b); err == nil {
		t.Error("ordering booleans should error")
	}
}

func TestStringBuiltins(t *testing.T) {
	b := Binding{"n": rdf.Literal("Customer_ID")}
	checks := map[string]bool{
		`LCASE(?n) = "customer_id"`:      true,
		`UCASE(?n) = "CUSTOMER_ID"`:      true,
		`STR(?n) = "Customer_ID"`:        true,
		`CONTAINS(?n, "tomer")`:          true,
		`STRSTARTS(?n, "Cust")`:          true,
		`STRENDS(?n, "_ID")`:             true,
		`STRENDS(LCASE(?n), "_id")`:      true,
		`CONTAINS(UCASE(?n), "missing")`: false,
	}
	for expr, want := range checks {
		if got := truth(t, expr, b); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestRegexFlags(t *testing.T) {
	b := Binding{"n": rdf.Literal("Customer")}
	if !truth(t, `regex(?n, "^cust", "i")`, b) {
		t.Error("case-insensitive flag ignored")
	}
	if truth(t, `regex(?n, "^cust")`, b) {
		t.Error("case-sensitive regex matched wrongly")
	}
	lines := Binding{"n": rdf.Literal("a\nb")}
	for expr, want := range map[string]bool{
		`regex(?n, "a.b")`:       false,
		`regex(?n, "a.b", "s")`:  true,
		`regex(?n, "^b")`:        false,
		`regex(?n, "^b", "m")`:   true,
		`regex(?n, "A.B", "si")`: true,
	} {
		if got := truth(t, expr, lines); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

// TestRegexLiteralEquivalence: the substring kernel answers exactly what
// the compiled regexp answers — over ASCII and non-ASCII subjects, the
// characters Go's (?i) folds onto ASCII letters (U+017F onto s, U+212A
// onto k) and the one it does not (U+0130), the empty subject, patterns
// longer than the subject, and both flag values.
func TestRegexLiteralEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ascii := []rune("kKsSiIcustomer_ 0-")
	wide := append([]rune("\u017f\u212a\u0130\u00e9"), ascii...)
	word := func(alphabet []rune, n int) string {
		r := make([]rune, n)
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	kernel := 0
	for i := 0; i < 20000; i++ {
		patAlphabet, subjAlphabet := ascii, ascii
		if i%4 == 0 {
			patAlphabet = wide
		}
		if i%3 == 0 {
			subjAlphabet = wide
		}
		pattern, subject := word(patAlphabet, rng.Intn(5)), word(subjAlphabet, rng.Intn(9))
		for _, flags := range []string{"", "i"} {
			e, err := newRegexExpr(varExpr{name: "x"}, pattern, flags)
			if err != nil {
				t.Fatalf("regex(%q, %q): %v", pattern, flags, err)
			}
			if e.lit != "" {
				// The kernel settles every case but a case-folded miss on
				// a subject holding a byte >= 0x80.
				if hit, wide := containsFoldASCII(subject, e.lit); !e.fold || hit || !wide {
					kernel++
				}
			}
			got, err := e.Eval(Binding{"x": rdf.Literal(subject)})
			if err != nil {
				t.Fatal(err)
			}
			if want := e.re.MatchString(subject); got.Bool != want {
				t.Fatalf("regex(%q, %q, %q) = %v, regexp says %v", subject, pattern, flags, got.Bool, want)
			}
		}
	}
	if kernel == 0 {
		t.Error("no case took the literal kernel")
	}
	for _, pattern := range []string{"a.b", "a|b", "^a", "caf\u00e9"} {
		if e, _ := newRegexExpr(varExpr{name: "x"}, pattern, "i"); e.lit != "" {
			t.Errorf("pattern %q must not take the literal kernel", pattern)
		}
	}
	if e, _ := newRegexExpr(varExpr{name: "x"}, "ab", "s"); e.lit != "" {
		t.Error("flags other than \"\" and \"i\" must not take the literal kernel")
	}
}

func TestLangTagLiteralInExpr(t *testing.T) {
	b := Binding{"n": rdf.LangLiteral("Kunde", "de")}
	if !truth(t, `STR(?n) = "Kunde"`, b) {
		t.Error("lang literal STR failed")
	}
}
