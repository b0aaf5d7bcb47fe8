import os
from pathlib import Path

import gcdmorphic


def child_env(**env):
    # the child imports the same package as this process, installed or not
    src = str(Path(gcdmorphic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}
