package cliflag

import (
	"errors"
	"os"
	"strings"
	"testing"
)

func TestValidators(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		wantErr bool
	}{
		{"positive ok", Positive("m", 64), false},
		{"positive one", Positive("m", 1), false},
		{"positive zero", Positive("m", 0), true},
		{"positive negative", Positive("n", -5), true},
		{"nonnegative ok", NonNegative("nres", 0), false},
		{"nonnegative negative", NonNegative("nres", -1), true},
		{"unit zero", Unit("alpha", 0), false},
		{"unit one", Unit("alpha", 1), false},
		{"unit mid", Unit("alpha", 0.5), false},
		{"unit below", Unit("alpha", -0.01), true},
		{"unit above", Unit("alpha", 1.01), true},
		{"positive-unit ok", PositiveUnit("alpha", 0.5), false},
		{"positive-unit zero", PositiveUnit("alpha", 0), true},
		{"positive-unit above", PositiveUnit("alpha", 2), true},
		{"nonnegativef ok", NonNegativeF("rate", 0), false},
		{"nonnegativef negative", NonNegativeF("rate", -0.5), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if (c.err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr = %v", c.err, c.wantErr)
			}
			if c.err != nil && !errors.Is(c.err, ErrFlag) {
				t.Fatalf("error %v does not wrap ErrFlag", c.err)
			}
		})
	}
}

func TestErrorsNameTheFlag(t *testing.T) {
	for flag, err := range map[string]error{
		"m":     Positive("m", -1),
		"nres":  NonNegative("nres", -1),
		"alpha": Unit("alpha", 7),
	} {
		if !strings.Contains(err.Error(), "-"+flag) {
			t.Errorf("error %q does not name -%s", err, flag)
		}
	}
}

func TestFirst(t *testing.T) {
	if err := First(nil, nil, nil); err != nil {
		t.Fatalf("First(nil...) = %v", err)
	}
	e1, e2 := Positive("m", 0), Positive("n", 0)
	if err := First(nil, e1, e2); err != e1 {
		t.Fatalf("First returned %v, want first error %v", err, e1)
	}
}

func TestWritableDir(t *testing.T) {
	base := t.TempDir()
	if err := WritableDir("waldir", base); err != nil {
		t.Fatalf("existing writable dir: %v", err)
	}
	nested := base + "/a/b/c"
	if err := WritableDir("waldir", nested); err != nil {
		t.Fatalf("creatable nested dir: %v", err)
	}
	if _, err := os.Stat(nested); err != nil {
		t.Fatalf("nested dir was not created: %v", err)
	}
	if err := WritableDir("waldir", ""); !errors.Is(err, ErrFlag) {
		t.Fatalf("empty path: err = %v, want ErrFlag", err)
	}
	// A regular file where the directory should be: MkdirAll fails.
	file := base + "/plain"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WritableDir("waldir", file); !errors.Is(err, ErrFlag) {
		t.Fatalf("path through a file: err = %v, want ErrFlag", err)
	}
	if os.Getuid() != 0 { // root bypasses mode bits
		ro := base + "/ro"
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if err := WritableDir("waldir", ro); !errors.Is(err, ErrFlag) {
			t.Fatalf("read-only dir: err = %v, want ErrFlag", err)
		}
	}
}
