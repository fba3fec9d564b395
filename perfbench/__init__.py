"""End-to-end benchmark of the biphoton package; see README.md."""
