"""Loaded-workload benchmark of the SD-Policy simulator (see NOTES.md)."""
