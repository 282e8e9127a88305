"""Re-render ``gossamer``'s phases in place: ``PYTHONPATH=src python -m
tagauth.rerender`` executes ``gossamer`` once, where ``-m tagauth.gossamer``
would execute it again as __main__ after the package has imported it."""

from . import gossamer


def rerendered(text: str) -> str:
    """``text``, gossamer's source, with the code between BEGIN and END rendered anew."""
    start = text.index(gossamer.BEGIN) + len(gossamer.BEGIN)
    return text[:start] + gossamer.render() + text[text.index(gossamer.END, start):]


if __name__ == "__main__":
    with open(gossamer.__file__, encoding="utf-8") as fh:
        text = rerendered(fh.read())  # raises before the file is opened for writing
    with open(gossamer.__file__, "w", encoding="utf-8") as fh:
        fh.write(text)
