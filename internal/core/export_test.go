package core

import "zidian/internal/baav"

// PkOf exposes pkOf to the external tests.
func (c *Checker) PkOf(s baav.KVSchema) []string { return c.pkOf(s) }
