"""The package namespace: each public name resolves on first use to the
object its defining module holds, as if every layer were imported eagerly."""

import os
import subprocess
import sys

import pytest

import passive_cvqkd


@pytest.mark.parametrize("name", passive_cvqkd.__all__)
def test_public_name_is_the_defining_modules_object(name):
    obj = getattr(passive_cvqkd, name)
    assert obj.__module__.startswith("passive_cvqkd.")
    assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from passive_cvqkd import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(passive_cvqkd.__all__)
    assert all(namespace[name] is getattr(passive_cvqkd, name) for name in namespace)


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as err:
        passive_cvqkd.no_such_name
    assert str(err.value) == "module 'passive_cvqkd' has no attribute 'no_such_name'"
    assert not hasattr(passive_cvqkd, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from passive_cvqkd import no_such_name", {})


def test_fresh_package_resolves_names_and_submodules_on_first_use():
    # Importing the package and listing it load no layer; reading a name
    # loads its module (and numpy), and submodules still import by name.
    code = (
        "import sys\n"
        "import passive_cvqkd\n"
        "listed = set(dir(passive_cvqkd))\n"
        "print(set(passive_cvqkd.__all__) <= listed, 'numpy' in sys.modules)\n"
        "from passive_cvqkd import ChannelModel\n"
        "print(ChannelModel is sys.modules['passive_cvqkd.noise'].ChannelModel, 'passive_cvqkd.g2' in sys.modules)\n"
        "from passive_cvqkd import cli, simulate\n"
        "print(cli is sys.modules['passive_cvqkd.cli'], simulate is sys.modules['passive_cvqkd.simulate'])\n"
    )
    src = os.path.dirname(os.path.dirname(passive_cvqkd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "True False\nTrue False\nTrue True\n"
