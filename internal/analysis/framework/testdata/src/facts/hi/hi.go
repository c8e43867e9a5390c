// Package hi calls into lo; the facts test expects the fact exported on
// lo.Target to be visible here.
package hi

import "facts/lo"

func CallMarked() {
	lo.Target()
}

func CallPlain() {
	lo.Plain()
}

func CallSuppressed() {
	lo.Target() //mdwlint:allow mark covered by integration test
}

//mdwlint:allow mark this allow is stale on purpose
func Stale() {
	lo.Plain()
}
