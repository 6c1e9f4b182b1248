package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins the startup validation: out-of-range engine knobs
// must be rejected with a message naming the flag, not passed through to
// the engine.
func TestValidateFlags(t *testing.T) {
	ok := func(scale float64, stride, max, parallel int, cacheMB int64, deadline time.Duration) {
		t.Helper()
		if err := validateFlags(scale, stride, max, parallel, cacheMB, deadline); err != nil {
			t.Errorf("validateFlags(%v, %d, %d, %d, %d, %v) rejected a valid combination: %v",
				scale, stride, max, parallel, cacheMB, deadline, err)
		}
	}
	bad := func(flag string, scale float64, stride, max, parallel int, cacheMB int64, deadline time.Duration) {
		t.Helper()
		err := validateFlags(scale, stride, max, parallel, cacheMB, deadline)
		if err == nil {
			t.Errorf("validateFlags(%v, %d, %d, %d, %d, %v) accepted an invalid combination",
				scale, stride, max, parallel, cacheMB, deadline)
			return
		}
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error %q does not name the offending flag %s", err, flag)
		}
	}

	ok(0.25, 1, 0, 0, 1024, 0)
	ok(1.0, 16, 3, 48, 0, 0)
	ok(0.001, 1, 0, 1, 1, 0)
	ok(0.25, 1, 0, 0, 1024, 10*time.Minute)

	bad("-scale", 0, 1, 0, 0, 1024, 0)
	bad("-scale", -0.5, 1, 0, 0, 1024, 0)
	bad("-scale", 1.5, 1, 0, 0, 1024, 0)
	bad("-stride", 0.25, 0, 0, 0, 1024, 0)
	bad("-stride", 0.25, -2, 0, 0, 1024, 0)
	bad("-max", 0.25, 1, -1, 0, 1024, 0)
	bad("-parallel", 0.25, 1, 0, -1, 1024, 0)
	bad("-cachemb", 0.25, 1, 0, 0, -1, 0)
	bad("-deadline", 0.25, 1, 0, 0, 1024, -time.Second)
}
