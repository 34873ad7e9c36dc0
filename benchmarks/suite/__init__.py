"""The repo's benchmark: seven named journeys, per-block distributions,
and a per-layer wall profile taken from outside.  See README.md here."""
