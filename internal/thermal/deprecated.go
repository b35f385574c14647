package thermal

// Close does nothing: a Workspace holds only memory, which the garbage
// collector reclaims. It is kept so callers written when a Workspace
// could own a worker pool still build; no caller in this module uses
// it, and it goes once the last external caller is gone.
func (w *Workspace) Close() {}
