"""Data ingestion, DC analysis, sweep orchestration and report emission."""
