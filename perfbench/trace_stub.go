//go:build e2eonly

package main

import (
	"errors"
	"time"
)

// traced is unavailable in the end-to-end-only build (-tags e2eonly), which
// compiles against older trees that lack the packages the traced run uses.
func traced(suite, time.Duration) (result, error) {
	return result{}, errors.New("traced run not built (built with -tags e2eonly)")
}
