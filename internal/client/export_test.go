package client

// DisableMapCache turns c's chunk-map cache off, so every open fetches the
// full map: the uncached baseline of the package's external benchmarks.
// Call it before c opens anything.
func DisableMapCache(c *Client) { c.maps = newMapCache(0) }
