package ninep

import (
	"fmt"
	"sort"
	"strings"
)

// Export and server inspection only the tests use.

// Fids returns the number of live fids (leak observation in tests).
func (s *Server) Fids() int { return len(s.fids) }

// Remove deletes a file or empty directory host-side.
func (fs *ExportFS) Remove(path string) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("EINVAL")
	}
	parent, err := fs.lookup(strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("ENOENT")
	}
	if n.dir && len(n.children) > 0 {
		return fmt.Errorf("ENOTEMPTY")
	}
	delete(parent.children, name)
	return nil
}

// List returns the sorted child names of a directory host-side.
func (fs *ExportFS) List(path string) ([]string, error) {
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("ENOTDIR")
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// TotalBytes sums all file contents (host memory accounting).
func (fs *ExportFS) TotalBytes() int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		total := int64(len(n.data))
		for _, c := range n.children {
			total += walk(c)
		}
		return total
	}
	return walk(fs.root)
}

// Size returns a file's length host-side.
func (fs *ExportFS) Size(path string) (int64, error) {
	n, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	return int64(len(n.data)), nil
}
