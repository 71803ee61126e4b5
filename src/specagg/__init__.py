"""Dual-stream speculative token aggregation at desk scale.

Two decoders draft tokens independently over their own retrieved documents;
a movable aggregator verifies each pair against the interpolated target
distribution, schedules itself onto the cheaper side, and everything is
replayable from a single seed.
"""
