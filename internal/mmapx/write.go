package mmapx

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile replaces path with what write produces, atomically: the bytes
// go to a temp file in path's directory, which is synced, closed and then
// renamed over path. A reader that has the old file mapped keeps its old
// bytes (the rename swaps the directory entry; the mapped inode lives on),
// where truncating the file in place would fault its next read (SIGBUS).
// On any error the temp file is removed and path is left as it was.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file owner-only; give it the mode os.Create
	// yields under the common 022 umask.
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
