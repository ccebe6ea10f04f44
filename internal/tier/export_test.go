package tier

// SetCheckpointFloor lowers the heat log's checkpoint trigger, so that a
// test — tier_test's served shard included — reaches a checkpoint with
// few records, and returns the function that restores it.
func SetCheckpointFloor(n int64) (restore func()) {
	old := checkpointFloor
	checkpointFloor = n
	return func() { checkpointFloor = old }
}
