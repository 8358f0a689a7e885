"""One stage process: ``import rulelab.cli``, timed, then one command.

    python3 perfbench/stage.py <rulelab command and arguments>
    python3 perfbench/stage.py llm --config CONFIG --seed N

This is what the installed ``rulelab`` console script does (import
``rulelab.cli``, call ``main``), plus one first line on standard error
giving the import time in seconds.  ``llm`` runs ``llmphase.py``, the
benchmark's stand-in for ``rulelab run --engine llm``.
"""

import sys
import time

started = time.perf_counter()
import rulelab.cli  # noqa: E402

print(f"import_s {time.perf_counter() - started!r}", file=sys.stderr, flush=True)

if __name__ == "__main__":
    if sys.argv[1:2] == ["llm"]:
        import llmphase

        sys.exit(llmphase.main(sys.argv[2:]))
    sys.exit(rulelab.cli.main(sys.argv[1:]))
