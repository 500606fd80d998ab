package sqlite

import (
	"fmt"

	"vampos/internal/unikernel"
)

// MustExec is a test convenience that panics on error.
func (a *App) MustExec(s *unikernel.Sys, sql string) *Result {
	res, err := a.Exec(s, sql)
	if err != nil {
		panic(fmt.Sprintf("sqlite: %s: %v", sql, err))
	}
	return res
}
