package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sdfm/internal/experiments"
)

// TestOnlyA3 runs the one experiment that needs no simulation, and
// nothing else.
func TestOnlyA3(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "a3"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := experiments.A3KstaledOverhead().Render() + "\n"; out.String() != want {
		t.Errorf("-only a3 printed\n%s\nwant the A3 table alone:\n%s", out.String(), want)
	}
	if !strings.HasPrefix(out.String(), "kstaled scan overhead at 120 s period\n") {
		t.Errorf("-only a3 output does not open with the A3 title:\n%s", out.String())
	}
}

// TestUnknownNamesAreUsageErrors: a misspelt -only (or -scale) prints
// nothing and names the valid choices, rather than exiting 0 silently.
func TestUnknownNamesAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args  []string
		valid string
	}{
		{[]string{"-only", "fig4"}, names()},
		{[]string{"-only", "Fig7"}, names()},
		{[]string{"-only", "nosuch"}, "fig1, fig2, fig3, fig5"},
		{[]string{"-scale", "huge", "-only", "a3"}, "small, medium, large"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if !errors.As(err, new(usageError)) {
			t.Errorf("%v: err = %v, want a usage error", c.args, err)
			continue
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q", c.args, out.String())
		}
		if !strings.Contains(err.Error(), "valid: "+c.valid) {
			t.Errorf("%v: error %q does not list the valid names %q", c.args, err, c.valid)
		}
	}
}
