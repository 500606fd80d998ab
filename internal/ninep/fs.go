package ninep

import (
	"fmt"
	"strings"
)

// ExportFS is the host-side in-memory file tree a 9P server exports —
// the model's analogue of the QEMU-shared host directory. It survives
// guest reboots (full and component-level), which is what makes Redis's
// AOF file durable across the Fig. 8 full-reboot recovery.
type ExportFS struct {
	root     *node
	nextPath uint64
	// WriteCount / FsyncCount feed the I/O accounting in the Fig. 7
	// experiment (AOF storage-time analysis).
	WriteCount uint64
	FsyncCount uint64
}

type node struct {
	name     string
	dir      bool
	children map[string]*node
	data     []byte
	qid      Qid
}

// NewExportFS creates an empty export with a root directory.
func NewExportFS() *ExportFS {
	fs := &ExportFS{nextPath: 1}
	fs.root = &node{
		name: "/", dir: true, children: make(map[string]*node),
		qid: Qid{Type: QTDir, Path: 0},
	}
	return fs
}

func splitPath(path string) []string {
	var out []string
	for _, part := range strings.Split(path, "/") {
		if part != "" && part != "." {
			out = append(out, part)
		}
	}
	return out
}

// lookup resolves a path to a node.
func (fs *ExportFS) lookup(path string) (*node, error) {
	n := fs.root
	for _, part := range splitPath(path) {
		if !n.dir {
			return nil, fmt.Errorf("ENOTDIR")
		}
		child, ok := n.children[part]
		if !ok {
			return nil, fmt.Errorf("ENOENT")
		}
		n = child
	}
	return n, nil
}

// walkChild resolves one name under a directory node (server use).
func (fs *ExportFS) walkChild(n *node, name string) (*node, error) {
	if !n.dir {
		return nil, fmt.Errorf("ENOTDIR")
	}
	child, ok := n.children[name]
	if !ok {
		return nil, fmt.Errorf("ENOENT")
	}
	return child, nil
}

func (fs *ExportFS) newNode(name string, dir bool) *node {
	qt := uint8(0)
	if dir {
		qt = QTDir
	}
	n := &node{name: name, dir: dir, qid: Qid{Type: qt, Path: fs.nextPath}}
	fs.nextPath++
	if dir {
		n.children = make(map[string]*node)
	}
	return n
}

// create adds a child under a directory node (server use).
func (fs *ExportFS) create(parent *node, name string, dir bool) (*node, error) {
	if !parent.dir {
		return nil, fmt.Errorf("ENOTDIR")
	}
	if name == "" || strings.Contains(name, "/") {
		return nil, fmt.Errorf("EINVAL")
	}
	if _, exists := parent.children[name]; exists {
		return nil, fmt.Errorf("EEXIST")
	}
	n := fs.newNode(name, dir)
	parent.children[name] = n
	return n, nil
}

// MkdirAll creates a directory path host-side (test/workload setup).
func (fs *ExportFS) MkdirAll(path string) error {
	n := fs.root
	for _, part := range splitPath(path) {
		child, ok := n.children[part]
		if !ok {
			var err error
			child, err = fs.create(n, part, true)
			if err != nil {
				return err
			}
		}
		if !child.dir {
			return fmt.Errorf("ENOTDIR")
		}
		n = child
	}
	return nil
}

// WriteFile creates or replaces a file host-side.
func (fs *ExportFS) WriteFile(path string, data []byte) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("EISDIR")
	}
	dir := strings.Join(parts[:len(parts)-1], "/")
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	parent, err := fs.lookup(dir)
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		n, err = fs.create(parent, name, false)
		if err != nil {
			return err
		}
	}
	if n.dir {
		return fmt.Errorf("EISDIR")
	}
	n.data = append([]byte(nil), data...)
	n.qid.Version++
	return nil
}

// ReadFile returns a copy of a file's contents host-side.
func (fs *ExportFS) ReadFile(path string) ([]byte, error) {
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, fmt.Errorf("EISDIR")
	}
	return append([]byte(nil), n.data...), nil
}
