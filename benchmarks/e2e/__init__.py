"""The end-to-end benchmark of the secure stack (see README.md here)."""
