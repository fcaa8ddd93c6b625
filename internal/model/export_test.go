package model

// OnlyColumns reports whether c holds its column form and no row map: what a
// frozen cube does, and only a frozen cube.
func OnlyColumns(c *Cube) bool { return c.rows == nil && c.cols.Load() != nil }
