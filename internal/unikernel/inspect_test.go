package unikernel

// Lseek moves the file offset.
func (s *Sys) Lseek(fd int, off int64, whence int) (int64, error) {
	rets, err := s.call("vfs", "lseek", fd, off, whence)
	if err != nil {
		return 0, err
	}
	return rets.Int64(0)
}
