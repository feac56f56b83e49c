package network

// SetPoisonReleased switches the buffer-lifetime check on or off: while on,
// every node fills each buffer its MAC hands back with 0xA5 before the
// buffer returns to the node's free list.
func SetPoisonReleased(on bool) { poisonReleased = on }
