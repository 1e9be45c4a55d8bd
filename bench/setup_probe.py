"""One fresh-interpreter set-up: import sicpl, load the three built-in tables and the catalog.

Usage: python bench/setup_probe.py
"""

import sicpl

if __name__ == "__main__":
    for name in sicpl.groups.BUILTIN_GROUPS:
        sicpl.builtin_group(name)
    sicpl.builtin_catalog()
