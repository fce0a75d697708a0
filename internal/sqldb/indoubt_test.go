package sqldb

// CommitLogged is CommitsLogged for one gid.
func (e *Engine) CommitLogged(gid uint64) (bool, error) {
	found, err := e.CommitsLogged([]uint64{gid})
	return found[0], err
}
