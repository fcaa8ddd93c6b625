package sqlengine

import "maps"

// Tables returns the database's tables by name, for the tests of package
// sqlengine_test.
func (db *DB) Tables() map[string]*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return maps.Clone(db.tables)
}
