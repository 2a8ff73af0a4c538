"""Packaging for the DAC-1981 fault-coverage reproduction.

Kept as a plain ``setup.py`` (no build isolation, no wheel requirement)
so offline machines can still ``pip install -e . --no-build-isolation``
with nothing but setuptools.  Installs four console scripts:

* ``repro-experiments`` — regenerate the paper's tables and figures
  (optionally against a remote server via ``--server``);
* ``repro-server`` — the multi-client lot-testing server
  (see ``docs/server.md``);
* ``repro-gateway`` — the HTTP/JSON gateway with per-netlist-group
  sessions and Prometheus ``/metrics`` (see ``docs/server.md``);
* ``repro-router`` — the consistent-hash federation front end over N
  ``repro-server`` backends (see ``docs/federation.md``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-dac81-fault-coverage",
    version="0.7.0",
    description=(
        "Reproduction of Agrawal, Seth & Agrawal, 'LSI Product Quality "
        "and Fault Coverage' (DAC 1981): analytic reject-rate model plus "
        "a fault-simulated Monte-Carlo validation stack with a "
        "multi-client lot-testing server"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-gateway=repro.gateway.__main__:main",
            "repro-router=repro.router.__main__:main",
            "repro-server=repro.server.__main__:main",
        ]
    },
)
