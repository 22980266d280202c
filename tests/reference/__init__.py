"""Slow, obviously-correct forms of the model, kept in tests as references.

``validator`` proves the compiled programs: every stage plan and reorder
plan ``fdsim.schedule`` emits moves, in one batch per phase, exactly what
moving it cycle by cycle through the ports would; ``image`` reads back
the memory image ``fdsim.membank.export_image`` writes.
"""
