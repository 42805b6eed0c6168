"""Immutable result records, as plain classes: defining one runs no code
generator, as ``dataclasses`` does, so importing the package stays quick."""


class Record:
    """Fields are the class annotations, in order; a class attribute of a
    field's name is its default.  Built by position or name, then checked
    by ``__post_init__``; compared, hashed and shown by field; read-only,
    though a ``functools.cached_property`` still fills ``__dict__``."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        """Compile this class's ``__init__`` on its first instance, then run it;
        it sets each field by itself, keeping values inline, where reads are fast."""
        cls, fields = type(self), self._fields
        params = [f"{name}=_defaults[{name!r}]" if name in cls.__dict__ else name for name in fields]
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        scope = {"_set": object.__setattr__, "_defaults": cls.__dict__}
        exec(f"def __init__(self, {', '.join(params)}):{body}\n    self.__post_init__()", scope)
        init = cls.__init__ = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"  # for the TypeErrors it raises
        init(self, *args, **kwargs)

    def __post_init__(self):
        """Check the fields; a record that validates overrides this."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: {name!r} stays as built")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self._fields]
                == [getattr(other, name) for name in other._fields])

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
