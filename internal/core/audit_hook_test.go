package core_test

import (
	"testing"

	"semicont/internal/audit"
	"semicont/internal/core"
)

// The internal/audit auditor for the engines this package's own tests
// build (see NewTestAuditor in helpers_test.go).
func init() {
	core.NewTestAuditor = func(t testing.TB) core.AuditTap {
		a := audit.New()
		t.Cleanup(func() {
			if err := a.Err(); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
		return a
	}
}
