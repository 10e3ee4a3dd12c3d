package mmapx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	put := func(s string) error {
		return WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		})
	}
	if err := put("first"); err != nil {
		t.Fatal(err)
	}
	if err := put("second"); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("got %q, %v", got, err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, %v", st.Mode(), err)
	}

	// A write that fails halfway leaves the old file and no temp file.
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the write error, got %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Fatalf("failed write changed the file: %q, %v", got, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("failed write left files behind: %v (err %v)", entries, err)
	}

	// An unwritable target directory fails before writing anything.
	if err := WriteFile(filepath.Join(dir, "missing", "f.bin"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("writing into a missing directory must fail")
	}
}
