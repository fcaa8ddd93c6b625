package model

// OnlyColumns reports whether c holds its column form and no edits: what a
// frozen cube does, and only a frozen cube.
func OnlyColumns(c *Cube) bool {
	p := c.cols.Load()
	return c.edits == nil && p != nil && c.base == p
}
